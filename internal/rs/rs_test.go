package rs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverse and distributivity over random elements.
	f := func(a, b, c byte) bool {
		// a*(b^c) == a*b ^ a*c (distributivity: ^ is field addition)
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			return false
		}
		// commutativity
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		// inverse
		if a != 0 && gfMul(a, gfInv(a)) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	gfDiv(1, 0)
}

func TestNewValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 1}, {1, 0}, {200, 100}} {
		if _, err := New(c[0], c[1]); err == nil {
			t.Fatalf("New(%d,%d) must fail", c[0], c[1])
		}
	}
	e, err := New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.dataShards != 8 || e.parityShards != 4 || e.TotalShards() != 12 {
		t.Fatal("accessors")
	}
}

// parityMatches re-encodes the data shards into fresh parity and reports
// whether it equals the parity in shards.
func parityMatches(t *testing.T, e *Encoder, shards [][]byte) bool {
	t.Helper()
	fresh := append([][]byte(nil), shards[:e.dataShards]...)
	for range e.parityShards {
		fresh = append(fresh, make([]byte, len(shards[0])))
	}
	if err := e.Encode(fresh); err != nil {
		t.Fatal(err)
	}
	for p := e.dataShards; p < e.TotalShards(); p++ {
		if !bytes.Equal(fresh[p], shards[p]) {
			return false
		}
	}
	return true
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	e, _ := New(6, 3)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	shards, err := e.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	if !parityMatches(t, e, shards) {
		t.Fatal("freshly encoded parity does not match its data")
	}
	// Corrupt a byte: the parity must no longer match.
	shards[2][5] ^= 0xff
	if parityMatches(t, e, shards) {
		t.Fatal("corruption not detected")
	}
	shards[2][5] ^= 0xff
	got, err := e.Join(shards, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("join mismatch")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	e, _ := New(4, 3)
	data := make([]byte, 5_000)
	rand.New(rand.NewSource(2)).Read(data)
	orig, _ := e.Split(data)
	if err := e.Encode(orig); err != nil {
		t.Fatal(err)
	}

	// Every pattern of up to 3 erasures out of 7 shards must recover.
	for mask := 0; mask < 1<<7; mask++ {
		erased := 0
		for b := 0; b < 7; b++ {
			if mask>>b&1 == 1 {
				erased++
			}
		}
		if erased == 0 || erased > 3 {
			continue
		}
		shards := make([][]byte, 7)
		for i := range shards {
			if mask>>i&1 == 0 {
				shards[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := e.Reconstruct(shards); err != nil {
			t.Fatalf("mask %07b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("mask %07b: shard %d wrong after reconstruct", mask, i)
			}
		}
	}
}

func TestReconstructTooFewFails(t *testing.T) {
	e, _ := New(4, 2)
	data := make([]byte, 100)
	shards, _ := e.Split(data)
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	// Erase 3 of 6: only 3 < 4 data shards remain.
	shards[0], shards[1], shards[5] = nil, nil, nil
	if err := e.Reconstruct(shards); err == nil {
		t.Fatal("reconstruct with too few shards must fail")
	}
}

func TestReconstructRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 2 + rr.Intn(8)
		p := 1 + rr.Intn(5)
		e, err := New(d, p)
		if err != nil {
			return false
		}
		data := make([]byte, 1+rr.Intn(4096))
		rr.Read(data)
		shards, _ := e.Split(data)
		if err := e.Encode(shards); err != nil {
			return false
		}
		// Erase up to p random shards.
		for i := 0; i < p; i++ {
			shards[rr.Intn(d+p)] = nil
		}
		if err := e.Reconstruct(shards); err != nil {
			return false
		}
		got, err := e.Join(shards, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	for i := 0; i < 100; i++ {
		if !f(r.Int63()) {
			t.Fatalf("randomized reconstruct failed at iteration %d", i)
		}
	}
}

func TestSplitJoinEdgeCases(t *testing.T) {
	e, _ := New(3, 2)
	if _, err := e.Split(nil); err == nil {
		t.Fatal("empty split must fail")
	}
	// Size not divisible by shards: padding round trip.
	data := []byte{1, 2, 3, 4, 5, 6, 7}
	shards, err := e.Split(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Encode(shards); err != nil {
		t.Fatal(err)
	}
	got, err := e.Join(shards, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("join: %v %v", got, err)
	}
	if _, err := e.Join(shards, 10_000); err == nil {
		t.Fatal("oversize join must fail")
	}
	shards[1] = nil
	if _, err := e.Join(shards, len(data)); err == nil {
		t.Fatal("join with missing data shard must fail")
	}
}

func TestCheckShards(t *testing.T) {
	e, _ := New(2, 1)
	if err := e.Encode([][]byte{{1}, {2}}); err == nil {
		t.Fatal("wrong shard count must fail")
	}
	if err := e.Encode([][]byte{{1}, {2, 3}, {4}}); err == nil {
		t.Fatal("unequal shard sizes must fail")
	}
	if err := e.Encode([][]byte{{1}, nil, {4}}); err == nil {
		t.Fatal("nil shard must fail Encode")
	}
	if err := e.Reconstruct([][]byte{nil, nil, nil}); err == nil {
		t.Fatal("all-nil reconstruct must fail")
	}
}

func BenchmarkEncode8x4_1MB(b *testing.B) {
	e, _ := New(8, 4)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	shards, _ := e.Split(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct8x4_1MB(b *testing.B) {
	e, _ := New(8, 4)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	orig, _ := e.Split(data)
	if err := e.Encode(orig); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(orig))
		copy(shards, orig)
		shards[0], shards[3], shards[9] = nil, nil, nil
		if err := e.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
