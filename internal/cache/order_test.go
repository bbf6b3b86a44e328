package cache

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"past/internal/id"
)

// refCache is the cache as it was built on container/heap over a slice
// of item pointers, with the priority inside the item. It is kept as
// the oracle for the eviction order: GD-S priorities tie whenever two
// files of equal size see the same inflation value, so which of several
// equal entries a heap gives up first decides what the experiments
// evict. FIFO's hit sentinel, which skips the re-sift, is copied too.
type refCache struct {
	onEvict func(f id.File, size int64, content []byte)

	policy  Policy
	c       float64
	limit   int64
	used    int64
	tick    float64
	inflate float64
	items   map[id.File]*refItem
	h       refHeap

	hits, misses, evictions int64
}

type refItem struct {
	file    id.File
	size    int64
	content []byte
	pri     float64
	idx     int
}

type refHeap []*refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].pri < h[j].pri }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *refHeap) Push(x any)        { it := x.(*refItem); it.idx = len(*h); *h = append(*h, it) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func newRefCache(policy Policy, c float64) *refCache {
	return &refCache{policy: policy, c: c, items: make(map[id.File]*refItem)}
}

func (ca *refCache) SetLimit(n int64) {
	if n < 0 {
		n = 0
	}
	ca.limit = n
	ca.evictTo(ca.limit)
}

func (ca *refCache) priority(size int64, onHit bool) float64 {
	switch ca.policy {
	case GDS:
		s := size
		if s < 1 {
			s = 1
		}
		return ca.inflate + 1/float64(s)
	case LRU:
		ca.tick++
		return ca.tick
	case FIFO:
		if onHit {
			return -1
		}
		ca.tick++
		return ca.tick
	default:
		return 0
	}
}

func (ca *refCache) Insert(f id.File, size int64, content []byte) bool {
	if ca.policy == None || size < 0 {
		return false
	}
	if it, ok := ca.items[f]; ok {
		return ca.refresh(it, size, content)
	}
	if float64(size) >= ca.c*float64(ca.limit) {
		return false
	}
	if size > ca.limit {
		return false
	}
	ca.evictTo(ca.limit - size)
	it := &refItem{file: f, size: size, content: content, pri: ca.priority(size, false)}
	ca.items[f] = it
	heap.Push(&ca.h, it)
	ca.used += size
	return true
}

func (ca *refCache) refresh(it *refItem, size int64, content []byte) bool {
	if size == it.size {
		if content != nil {
			it.content = content
		}
		ca.touch(it)
		return true
	}
	if float64(size) >= ca.c*float64(ca.limit) || size > ca.limit {
		ca.Remove(it.file)
		return false
	}
	ca.used += size - it.size
	it.size = size
	it.content = content
	ca.touch(it)
	ca.evictTo(ca.limit)
	_, still := ca.items[it.file]
	return still
}

func (ca *refCache) Get(f id.File) (int64, []byte, bool) {
	it, found := ca.items[f]
	if !found {
		ca.misses++
		return 0, nil, false
	}
	ca.hits++
	ca.touch(it)
	return it.size, it.content, true
}

func (ca *refCache) touch(it *refItem) {
	p := ca.priority(it.size, true)
	if p < 0 {
		return
	}
	it.pri = p
	heap.Fix(&ca.h, it.idx)
}

func (ca *refCache) Remove(f id.File) bool {
	it, ok := ca.items[f]
	if !ok {
		return false
	}
	heap.Remove(&ca.h, it.idx)
	delete(ca.items, f)
	ca.used -= it.size
	return true
}

func (ca *refCache) evictTo(target int64) {
	if target < 0 {
		target = 0
	}
	for ca.used > target && len(ca.h) > 0 {
		it := heap.Pop(&ca.h).(*refItem)
		delete(ca.items, it.file)
		ca.used -= it.size
		ca.evictions++
		if ca.policy == GDS {
			ca.inflate = it.pri
		}
		if ca.onEvict != nil {
			ca.onEvict(it.file, it.size, it.content)
		}
	}
}

// TestEvictionOrderMatchesContainerHeap drives Cache and the
// container/heap oracle side by side through a seeded stream of every
// operation and requires the same answer to each, the same files
// evicted in the same order, and for GD-S the same inflation value.
// Sizes come from four values, so equal GD-S priorities are the rule,
// not the exception, and any change in how the heap breaks ties shows.
func TestEvictionOrderMatchesContainerHeap(t *testing.T) {
	const (
		ops   = 120_000
		files = 300
		limit = 32 << 10
	)
	sizes := []int64{0, 256, 1024, 4096}
	for _, pol := range []Policy{GDS, LRU, FIFO} {
		t.Run(pol.String(), func(t *testing.T) {
			got, want := New(pol, 1), newRefCache(pol, 1)
			var gotEv, wantEv []string
			got.OnEvict = func(f id.File, size int64, content []byte) {
				gotEv = append(gotEv, fmt.Sprintf("%s/%d/%q", f.Short(), size, content))
			}
			want.onEvict = func(f id.File, size int64, content []byte) {
				wantEv = append(wantEv, fmt.Sprintf("%s/%d/%q", f.Short(), size, content))
			}
			got.SetLimit(limit)
			want.SetLimit(limit)
			r := rand.New(rand.NewSource(int64(pol) + 35))
			evictions := 0
			for op := 0; op < ops; op++ {
				f := fid(uint64(r.Intn(r.Intn(files) + 1))) // low ids are hot
				var desc string
				var g, w any
				switch k := r.Intn(100); {
				case k < 45: // insert or refresh, often at a new size
					size := sizes[r.Intn(len(sizes))]
					var content []byte
					if r.Intn(2) == 0 {
						content = []byte(fmt.Sprint(op))
					}
					desc = fmt.Sprintf("Insert(%s, %d)", f.Short(), size)
					g, w = got.Insert(f, size, content), want.Insert(f, size, content)
				case k < 85:
					desc = fmt.Sprintf("Get(%s)", f.Short())
					gs, gc, gok := got.Get(f)
					ws, wc, wok := want.Get(f)
					g, w = fmt.Sprint(gs, string(gc), gok), fmt.Sprint(ws, string(wc), wok)
				case k < 97:
					desc = fmt.Sprintf("Remove(%s)", f.Short())
					g, w = got.Remove(f), want.Remove(f)
				default: // the owner's replica store grows or shrinks
					n := int64(r.Intn(2*limit)) - limit/4
					desc = fmt.Sprintf("SetLimit(%d)", n)
					got.SetLimit(n)
					want.SetLimit(n)
				}
				if g != w {
					t.Fatalf("op %d %s: got %v, reference %v", op, desc, g, w)
				}
				if got.Used() != want.used || got.Len() != len(want.items) || got.limit != want.limit {
					t.Fatalf("op %d %s: used/len/limit %d/%d/%d, reference %d/%d/%d", op, desc,
						got.Used(), got.Len(), got.limit, want.used, len(want.items), want.limit)
				}
				if got.inflate != want.inflate {
					t.Fatalf("op %d %s: inflation %v, reference %v", op, desc, got.inflate, want.inflate)
				}
				if len(gotEv) != len(wantEv) {
					t.Fatalf("op %d %s: evicted %v, reference %v", op, desc, gotEv, wantEv)
				}
				for i := range gotEv {
					if gotEv[i] != wantEv[i] {
						t.Fatalf("op %d %s: evicted %v, reference %v", op, desc, gotEv, wantEv)
					}
				}
				evictions += len(gotEv)
				gotEv, wantEv = gotEv[:0], wantEv[:0]
			}
			gh, gm, ge := got.Stats()
			if gh != want.hits || gm != want.misses || ge != want.evictions {
				t.Fatalf("stats %d/%d/%d, reference %d/%d/%d", gh, gm, ge, want.hits, want.misses, want.evictions)
			}
			if evictions < ops/20 || gh < ops/50 {
				t.Fatalf("stream too gentle: %d evictions, %d hits in %d ops", evictions, gh, ops)
			}
			checkHeapConsistency(t, got)
		})
	}
}
