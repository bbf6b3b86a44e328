package id

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randNode(r *rand.Rand) Node {
	var n Node
	r.Read(n[:])
	return n
}

func TestNodeFromUint64(t *testing.T) {
	n := NodeFromUint64(0x1234)
	hi, lo := n.Halves()
	if hi != 0 || lo != 0x1234 {
		t.Fatalf("halves = %x,%x; want 0,1234", hi, lo)
	}
}

func TestCmp(t *testing.T) {
	a := NodeFromUint64(1)
	b := NodeFromUint64(2)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp ordering wrong")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less wrong")
	}
	hi := NodeFromHalves(1, 0)
	if !b.Less(hi) {
		t.Fatal("high half must dominate comparison")
	}
}

func TestRingDistWrap(t *testing.T) {
	// Distance between 0 and 2^128-1 is 1, across the wrap point.
	var zero Node
	var max Node
	for i := range max {
		max[i] = 0xff
	}
	d := zero.RingDist(max)
	if d != NodeFromUint64(1) {
		t.Fatalf("RingDist(0, max) = %v; want 1", d)
	}
}

func TestRingDistSimple(t *testing.T) {
	a := NodeFromUint64(100)
	b := NodeFromUint64(160)
	if d := a.RingDist(b); d != NodeFromUint64(60) {
		t.Fatalf("RingDist = %v; want 60", d)
	}
}

func TestRingDistSymmetric(t *testing.T) {
	f := func(ab [2 * NodeBytes]byte) bool {
		var a, b Node
		copy(a[:], ab[:NodeBytes])
		copy(b[:], ab[NodeBytes:])
		return a.RingDist(b) == b.RingDist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingDistIdentity(t *testing.T) {
	f := func(raw [NodeBytes]byte) bool {
		n := Node(raw)
		return n.RingDist(n).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingDistAtMostHalfRing(t *testing.T) {
	// Ring distance can never exceed 2^127.
	half := NodeFromHalves(1<<63, 0)
	f := func(ab [2 * NodeBytes]byte) bool {
		var a, b Node
		copy(a[:], ab[:NodeBytes])
		copy(b[:], ab[NodeBytes:])
		d := a.RingDist(b)
		return d.Cmp(half) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloserTotalOrder(t *testing.T) {
	// Closer must induce a strict total order among distinct ids: exactly
	// one of Closer(a,b), Closer(b,a) holds when a != b.
	f := func(raw [3 * NodeBytes]byte) bool {
		var n, a, b Node
		copy(n[:], raw[:NodeBytes])
		copy(a[:], raw[NodeBytes:2*NodeBytes])
		copy(b[:], raw[2*NodeBytes:])
		if a == b {
			return !n.Closer(a, b) && !n.Closer(b, a)
		}
		return n.Closer(a, b) != n.Closer(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDigitRoundTrip packs random base-2^b digits into an id, most
// significant first, and reads each back with Digit.
func TestDigitRoundTrip(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			digits := make([]int, NumDigits(b))
			v := new(big.Int)
			for i := range digits {
				digits[i] = r.Intn(1 << b)
				v.Lsh(v, uint(b)).Or(v, big.NewInt(int64(digits[i])))
			}
			n := fromBig(v)
			for i, d := range digits {
				if n.Digit(i, b) != d {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
	}
}

func TestDigitKnown(t *testing.T) {
	// 0x12 0x34 ... with b=4: digits 1,2,3,4...
	n := Node{0x12, 0x34}
	want := []int{1, 2, 3, 4}
	for i, w := range want {
		if g := n.Digit(i, 4); g != w {
			t.Fatalf("digit %d = %d; want %d", i, g, w)
		}
	}
	// b=2: 0x12 = 00 01 00 10
	want2 := []int{0, 1, 0, 2}
	for i, w := range want2 {
		if g := n.Digit(i, 2); g != w {
			t.Fatalf("b=2 digit %d = %d; want %d", i, g, w)
		}
	}
}

func TestSharedPrefixMatchesDigits(t *testing.T) {
	for _, b := range []int{1, 2, 4, 8} {
		f := func(raw [2 * NodeBytes]byte) bool {
			var x, y Node
			copy(x[:], raw[:NodeBytes])
			copy(y[:], raw[NodeBytes:])
			p := x.SharedPrefix(y, b)
			// Definition check digit by digit.
			n := 0
			for n < NumDigits(b) && x.Digit(n, b) == y.Digit(n, b) {
				n++
			}
			return p == n
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
	}
}

func TestSharedPrefixSelf(t *testing.T) {
	n := NodeFromUint64(42)
	if p := n.SharedPrefix(n, 4); p != NumDigits(4) {
		t.Fatalf("SharedPrefix(self) = %d; want %d", p, NumDigits(4))
	}
}

// parseNode parses a 32-hex-digit nodeId with the decoder ParseFile
// uses: nodeIds are never parsed outside tests.
func parseNode(s string) (Node, error) {
	var n Node
	err := parseHex("node", s, n[:])
	return n, err
}

func TestParseNodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		n := randNode(r)
		got, err := parseNode(n.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("round trip: %v != %v", got, n)
		}
	}
}

func TestParseNodeErrors(t *testing.T) {
	if _, err := parseNode("zz"); err == nil {
		t.Fatal("want error for bad hex")
	}
	if _, err := parseNode("abcd"); err == nil {
		t.Fatal("want error for short input")
	}
}

func TestParseFileRoundTrip(t *testing.T) {
	f := NewFile("report.pdf", []byte("pubkey"), 99)
	got, err := ParseFile(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Fatal("file round trip mismatch")
	}
	if _, err := ParseFile("00"); err == nil {
		t.Fatal("want error for short file id")
	}
}

func TestNewFileSaltChangesId(t *testing.T) {
	pub := []byte("owner")
	a := NewFile("f", pub, 1)
	b := NewFile("f", pub, 2)
	if a == b {
		t.Fatal("different salts must produce different fileIds")
	}
	if a != NewFile("f", pub, 1) {
		t.Fatal("fileId derivation must be deterministic")
	}
}

func TestFileKey(t *testing.T) {
	f := NewFile("x", nil, 0)
	k := f.Key()
	for i := 0; i < NodeBytes; i++ {
		if k[i] != f[i] {
			t.Fatal("Key must be the 128 msb of the fileId")
		}
	}
}

func TestNodeFromPublicKeyDeterministic(t *testing.T) {
	a := NodeFromPublicKey([]byte("k1"))
	b := NodeFromPublicKey([]byte("k1"))
	c := NodeFromPublicKey([]byte("k2"))
	if a != b {
		t.Fatal("nodeId derivation must be deterministic")
	}
	if a == c {
		t.Fatal("distinct keys must map to distinct nodeIds")
	}
}

func TestCheckBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for base 3")
		}
	}()
	NumDigits(3)
}

func TestShortStrings(t *testing.T) {
	n := NodeFromHalves(0xdeadbeef00000000, 0)
	if n.Short() != "deadbeef" {
		t.Fatalf("Short = %q", n.Short())
	}
	f := NewFile("a", nil, 0)
	if len(f.Short()) != 8 {
		t.Fatalf("file Short length = %d", len(f.Short()))
	}
}

func BenchmarkRingDist(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randNode(r), randNode(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.RingDist(y)
	}
}

func BenchmarkSharedPrefix(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randNode(r), randNode(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.SharedPrefix(y, 4)
	}
}
