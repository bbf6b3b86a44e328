package ec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"past/internal/id"
	"past/internal/obs"
)

func testFile(b byte) id.File {
	var f id.File
	f[0] = b
	return f
}

func TestParamsParse(t *testing.T) {
	p, err := ParseParams("4,2")
	if err != nil || p.Data != 4 || p.Parity != 2 {
		t.Fatalf("ParseParams(4,2) = %v, %v", p, err)
	}
	if p.Total() != 6 || p.Overhead() != 1.5 {
		t.Fatalf("Total/Overhead wrong: %d %f", p.Total(), p.Overhead())
	}
	for _, bad := range []string{"", "4", "4,0", "0,2", "a,b", "300,300"} {
		if _, err := ParseParams(bad); err == nil {
			t.Fatalf("ParseParams(%q) should fail", bad)
		}
	}
}

func TestMapRoundTrip(t *testing.T) {
	m := &Map{
		File:      testFile(9),
		Size:      12345,
		Data:      4,
		Parity:    2,
		ShardSize: 3087,
		Version:   7,
		Holders:   make([]id.Node, 6),
		CRCs:      []uint32{1, 2, 3, 4, 5, 6},
	}
	for i := range m.Holders {
		m.Holders[i][0] = byte(i + 1)
	}
	raw := m.Encode()
	if !IsMap(raw) {
		t.Fatal("encoded map not recognized by IsMap")
	}
	got, err := DecodeMap(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", m, got)
	}
	// Ordinary file content must not be mistaken for a map.
	if IsMap([]byte("hello world this is not a map")) {
		t.Fatal("plain content misidentified as map")
	}
	if _, err := DecodeMap(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated map decoded without error")
	}
}

func TestFragStoreCRC(t *testing.T) {
	s := NewFragStore()
	f := testFile(1)
	data := []byte("fragment payload")
	s.Put(Fragment{File: f, Index: 2, Version: 1, Data: data, CRC: Checksum(data)})
	if s.Len() != 1 || s.Bytes() != int64(len(data)) {
		t.Fatalf("Len/Bytes = %d/%d", s.Len(), s.Bytes())
	}
	got, ok := s.Get(f, 2)
	if !ok || !bytes.Equal(got.Data, data) {
		t.Fatal("Get lost the fragment")
	}
	// A payload that no longer matches its CRC: the next read must
	// detect, drop, and count it.
	s.Put(Fragment{File: f, Index: 2, Version: 1, Data: []byte("fragment payloaD"), CRC: Checksum(data)})
	if _, ok := s.Get(f, 2); ok {
		t.Fatal("corrupt fragment served")
	}
	if s.CRCFailures() != 1 {
		t.Fatalf("CRCFailures = %d, want 1", s.CRCFailures())
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("corrupt fragment not dropped: len=%d bytes=%d", s.Len(), s.Bytes())
	}
}

func TestFragStoreIndices(t *testing.T) {
	s := NewFragStore()
	f := testFile(3)
	for _, idx := range []int{5, 1, 3} {
		d := []byte{byte(idx)}
		s.Put(Fragment{File: f, Index: idx, Data: d, CRC: Checksum(d)})
	}
	if got := s.Indices(f); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Fatalf("Indices = %v", got)
	}
	// Another file's fragments, a replaced fragment, a deleted one and one
	// dropped for a bad CRC all leave the listing exact.
	other := testFile(4)
	for idx := 0; idx < 3; idx++ {
		d := []byte{byte(idx)}
		s.Put(Fragment{File: other, Index: idx, Data: d, CRC: Checksum(d)})
	}
	d := []byte("replacement")
	s.Put(Fragment{File: f, Index: 3, Data: d, CRC: Checksum(d)})
	s.Delete(f, 1)
	s.Put(Fragment{File: f, Index: 5, Data: []byte{0}, CRC: Checksum([]byte{5})})
	if _, ok := s.Has(f, 5); ok {
		t.Fatal("corrupt fragment reported held")
	}
	if got := s.Indices(f); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Indices after replace/delete/drop = %v, want [3]", got)
	}
	if got := s.Indices(other); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("other file's Indices = %v", got)
	}
	if s.Len() != 4 || s.Bytes() != int64(len(d)+3) {
		t.Fatalf("Len/Bytes = %d/%d, want 4/%d", s.Len(), s.Bytes(), len(d)+3)
	}
	s.Delete(f, 3)
	if got := s.Indices(f); got != nil {
		t.Fatalf("Indices of an emptied file = %v", got)
	}
}

// BenchmarkFragStoreIndices lists one file's fragments on a node holding
// fragments of 10,000 files — the invariant checker's per-file, per-node
// call.
func BenchmarkFragStoreIndices(b *testing.B) {
	s := NewFragStore()
	const files = 10000
	d := []byte("x")
	for i := 0; i < files; i++ {
		var f id.File
		f[0], f[1] = byte(i), byte(i>>8)
		s.Put(Fragment{File: f, Index: i % 6, Data: d, CRC: Checksum(d)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f id.File
		f[0], f[1] = byte(i%files), byte(i%files>>8)
		if len(s.Indices(f)) != 1 {
			b.Fatal("fragment missing")
		}
	}
}

func TestRepairQueueDedup(t *testing.T) {
	q := NewRepairQueue(1)
	it := RepairItem{File: testFile(1), Index: 0, Cost: 10}
	if !q.Enqueue(it) {
		t.Fatal("first enqueue rejected")
	}
	if q.Enqueue(it) {
		t.Fatal("duplicate enqueue accepted")
	}
	if len(q.items) != 1 {
		t.Fatalf("Len = %d", len(q.items))
	}
	q.Drop(it.File, it.Index)
	if len(q.items) != 0 {
		t.Fatal("Drop left the item")
	}
}

// TestRepairQueueBandwidthCap is the acceptance-criteria assertion that
// repair traffic respects the configured cap: no single drain pass may
// move more bytes than its budget, items over the remaining budget are
// deferred (not started), and deferred items complete in later passes.
func TestRepairQueueBandwidthCap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := NewRepairQueue(42)
	const n = 50
	total := int64(0)
	for i := 0; i < n; i++ {
		cost := int64(100 + rng.Intn(400))
		total += cost
		q.Enqueue(RepairItem{File: testFile(byte(i)), Index: i % 4, Cost: cost})
	}
	const budget = 1000
	var done int
	passes := 0
	for len(q.items) > 0 {
		passes++
		if passes > 100 {
			t.Fatal("queue did not drain")
		}
		spent := q.Drain(budget, func(it RepairItem) (int64, bool) {
			done++
			return it.Cost, true
		})
		if spent > budget {
			t.Fatalf("pass %d spent %d bytes, budget %d", passes, spent, budget)
		}
	}
	if done != n {
		t.Fatalf("repaired %d of %d items", done, n)
	}
	if passes < int(total/budget) {
		t.Fatalf("drained %d bytes in %d passes under a %d-byte cap", total, passes, budget)
	}
	ctrs := q.ObsCounters()
	if ctrs[obs.CtrECRepairDone] != n || ctrs[obs.CtrECRepairBytes] != total {
		t.Fatalf("counters: %+v", ctrs)
	}
	if ctrs[obs.CtrECRepairDeferred] == 0 {
		t.Fatal("expected deferrals under a tight budget")
	}
}

// Drain order must be a pure function of the seed and the pending set.
func TestRepairQueueDeterministicOrder(t *testing.T) {
	run := func(seed int64) []int {
		q := NewRepairQueue(seed)
		for i := 0; i < 20; i++ {
			q.Enqueue(RepairItem{File: testFile(byte(i)), Index: i, Cost: 1})
		}
		var order []int
		q.Drain(0, func(it RepairItem) (int64, bool) {
			order = append(order, it.Index)
			return it.Cost, true
		})
		return order
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different order:\n%v\n%v", a, b)
	}
	c := run(8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical order (suspicious)")
	}
}

func TestRepairQueueFailedCounted(t *testing.T) {
	q := NewRepairQueue(3)
	q.Enqueue(RepairItem{File: testFile(1), Index: 0, Cost: 5})
	q.Drain(0, func(it RepairItem) (int64, bool) { return 2, false })
	ctrs := q.ObsCounters()
	if ctrs[obs.CtrECRepairFailed] != 1 || ctrs[obs.CtrECRepairDone] != 0 {
		t.Fatalf("counters: %+v", ctrs)
	}
	if len(q.items) != 0 {
		t.Fatal("failed item should leave the queue (anti-entropy re-finds it)")
	}
}
