package cache

import (
	"testing"

	"past/internal/id"
)

// Re-inserting a cached file with a new size must update the byte
// accounting, not just recency. This was a real bug: Insert used to
// touch recency and return, leaving used bytes (and stale content)
// reflecting the old size forever.
func TestInsertRefreshUpdatesSizeAccounting(t *testing.T) {
	for _, pol := range []Policy{GDS, LRU, FIFO} {
		ca := New(pol, 1)
		ca.SetLimit(1000)
		if !ca.Insert(fid(1), 100, []byte("old")) {
			t.Fatalf("%v: initial insert failed", pol)
		}
		if !ca.Insert(fid(1), 300, []byte("newer")) {
			t.Fatalf("%v: refresh insert failed", pol)
		}
		if ca.Used() != 300 {
			t.Errorf("%v: used = %d after grow, want 300", pol, ca.Used())
		}
		if _, content, ok := ca.Get(fid(1)); !ok || string(content) != "newer" {
			t.Errorf("%v: content = %q after refresh, want %q", pol, content, "newer")
		}
		if !ca.Insert(fid(1), 50, []byte("small")) {
			t.Fatalf("%v: shrink refresh failed", pol)
		}
		if ca.Used() != 50 {
			t.Errorf("%v: used = %d after shrink, want 50", pol, ca.Used())
		}
	}
}

// A same-size refresh adopts non-nil content and touches recency only;
// accounting must be unchanged.
func TestInsertRefreshSameSize(t *testing.T) {
	ca := New(GDS, 1)
	ca.SetLimit(1000)
	ca.Insert(fid(1), 100, []byte("aaa"))
	ca.Insert(fid(1), 100, nil) // size-only offer: keep the cached copy
	if _, content, ok := ca.Get(fid(1)); !ok || string(content) != "aaa" {
		t.Fatalf("nil-content refresh dropped content: %q", content)
	}
	ca.Insert(fid(1), 100, []byte("bbb"))
	if _, content, _ := ca.Get(fid(1)); string(content) != "bbb" {
		t.Fatalf("refresh did not adopt new content: %q", content)
	}
	if ca.Used() != 100 {
		t.Fatalf("used = %d, want 100", ca.Used())
	}
}

// A refresh that grows the file beyond the remaining space must evict
// other files to fit, and a refresh that grows it beyond the insertion
// policy must drop it.
func TestInsertRefreshGrowEvicts(t *testing.T) {
	ca := New(LRU, 1)
	ca.SetLimit(1000)
	ca.Insert(fid(1), 400, nil)
	ca.Insert(fid(2), 400, nil)
	// Growing file 2 to 900 overflows; file 1 (least recent) must go.
	if !ca.Insert(fid(2), 900, nil) {
		t.Fatalf("grow refresh failed")
	}
	if cached(ca, fid(1)) {
		t.Errorf("grow refresh did not evict the colder file")
	}
	if ca.Used() != 900 || ca.Len() != 1 {
		t.Errorf("used=%d len=%d, want 900/1", ca.Used(), ca.Len())
	}
	// Growing beyond the insertion policy (c=1: size >= limit) drops it.
	if ca.Insert(fid(2), 1000, nil) {
		t.Errorf("refresh beyond insertion policy reported cached")
	}
	if cached(ca, fid(2)) || ca.Used() != 0 {
		t.Errorf("inadmissible refresh left the file cached (used=%d)", ca.Used())
	}
}

// OnEvict observes capacity evictions (with content) but not explicit
// removals.
func TestOnEvictHook(t *testing.T) {
	ca := New(GDS, 1)
	var evicted []int64
	ca.OnEvict = func(_ id.File, size int64, content []byte) {
		evicted = append(evicted, size)
		if content == nil {
			t.Errorf("OnEvict content nil for full-content item")
		}
	}
	ca.SetLimit(1000)
	ca.Insert(fid(1), 400, []byte("x"))
	ca.Insert(fid(2), 400, []byte("y"))
	ca.Remove(fid(1))
	if len(evicted) != 0 {
		t.Fatalf("Remove fired OnEvict")
	}
	ca.SetLimit(100) // capacity shrink evicts the remaining file
	if len(evicted) != 1 || evicted[0] != 400 {
		t.Fatalf("evicted = %v, want [400]", evicted)
	}
}
