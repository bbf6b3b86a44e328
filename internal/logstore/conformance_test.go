package logstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/store"
)

// backends is every store.Backend in the tree. A PAST node must not be
// able to tell them apart through the interface: the emulator runs on
// the first, a daemon on the second.
var backends = []struct {
	name string
	open func(t *testing.T, capacity int64) store.Backend
}{
	{"mem", func(t *testing.T, capacity int64) store.Backend { return store.New(capacity) }},
	{"log", func(t *testing.T, capacity int64) store.Backend {
		opts := testOpts()
		opts.Capacity = capacity
		s := mustOpen(t, t.TempDir(), opts)
		t.Cleanup(func() { s.Close() })
		return s
	}},
}

// observation is everything the Backend interface shows after one step.
type observation struct {
	step     string
	failed   bool        // the step's Add returned an error
	found    bool        // the step's Get/Remove/GetPointer/RemovePointer found its file
	entry    store.Entry // what it returned (Content moved to content)
	content  string
	pointer  store.Pointer
	entries  []store.Entry
	pointers []store.Pointer
	used     int64
	free     int64
	n        int
	util     float64
	accepts  []bool
}

// observe records the backend's whole visible state, and checks the
// parts of the contract that hold on their own: Entries() is metadata
// only and both scans are in fileId order.
func observe(t *testing.T, b store.Backend, o observation) observation {
	t.Helper()
	o.content, o.entry.Content = string(o.entry.Content), nil
	// append drops the one difference that is not behaviour: an empty
	// scan may be a nil or an empty slice.
	o.entries, o.pointers = append([]store.Entry(nil), b.Entries()...), append([]store.Pointer(nil), b.Pointers()...)
	for i, e := range o.entries {
		if e.Content != nil {
			t.Fatalf("%s: Entries()[%d] carries %d content bytes; content is Get's to return", o.step, i, len(e.Content))
		}
	}
	less := func(a, b id.File) bool { return bytes.Compare(a[:], b[:]) < 0 }
	if !sort.SliceIsSorted(o.entries, func(i, j int) bool { return less(o.entries[i].File, o.entries[j].File) }) ||
		!sort.SliceIsSorted(o.pointers, func(i, j int) bool { return less(o.pointers[i].File, o.pointers[j].File) }) {
		t.Fatalf("%s: scan not in fileId order", o.step)
	}
	o.used, o.free, o.n, o.util = b.Used(), b.Free(), b.Len(), b.Utilization()
	if o.used < 0 || o.used+o.free != b.Capacity() || o.n != len(o.entries) {
		t.Fatalf("%s: used=%d free=%d capacity=%d len=%d entries=%d", o.step, o.used, o.free, b.Capacity(), o.n, len(o.entries))
	}
	for _, size := range []int64{-1, 0, 1, o.free / 10, o.free/10 + 1, o.free, o.free + 1} {
		for _, thr := range []float64{0, 0.05, 0.1, 1} {
			o.accepts = append(o.accepts, b.CanAccept(size, thr))
		}
	}
	return o
}

// drive runs one seeded sequence of every mutating and reading call —
// duplicates, negative sizes, a capacity small enough to fill, entries
// with and without content and certificate — and returns what the
// backend showed after each step.
func drive(t *testing.T, b store.Backend, seed int64, steps int) []observation {
	r := rand.New(rand.NewSource(seed))
	file := func() id.File { return fid(uint64(r.Intn(24))) }
	out := []observation{observe(t, b, observation{step: "open"})}
	for i := 0; i < steps; i++ {
		var o observation
		switch op := r.Intn(11); {
		case op < 4:
			e := store.Entry{File: file(), Size: int64(r.Intn(400)) - 5, Kind: store.Kind(r.Intn(2))}
			if e.Kind == store.DivertedIn {
				e.Owner = id.NodeFromUint64(uint64(r.Intn(8)))
			}
			if e.Size >= 0 && r.Intn(3) != 0 {
				e.Content = contentFor(uint64(i), int(e.Size))
			}
			if r.Intn(3) == 0 {
				e.Cert = &cert.FileCertificate{FileID: e.File, K: 3, Salt: uint64(i), Owner: []byte{1, 2, 3}, Sig: []byte{4}}
			}
			o.step = fmt.Sprintf("%d: add %s size %d", i, e.File.Short(), e.Size)
			o.failed = b.Add(e) != nil
		case op < 6:
			f := file()
			o.step = fmt.Sprintf("%d: get %s", i, f.Short())
			o.entry, o.found = b.Get(f)
			// Stat is Get without the content.
			want := o.entry
			want.Content = nil
			if meta, ok := b.Stat(f); ok != o.found || !reflect.DeepEqual(meta, want) {
				t.Fatalf("%s: Stat = %+v, %v; want %+v, %v", o.step, meta, ok, want, o.found)
			}
		case op < 7:
			f := file()
			o.step = fmt.Sprintf("%d: stat %s", i, f.Short())
			o.entry, o.found = b.Stat(f)
			if o.entry.Content != nil {
				t.Fatalf("%s: Stat returned %d content bytes", o.step, len(o.entry.Content))
			}
		case op < 8:
			f := file()
			o.step = fmt.Sprintf("%d: remove %s", i, f.Short())
			o.entry, o.found = b.Remove(f)
		case op < 9:
			p := store.Pointer{File: file(), Target: id.NodeFromUint64(uint64(r.Intn(8))), Size: int64(r.Intn(400)), Role: store.PtrRole(r.Intn(2))}
			o.step = fmt.Sprintf("%d: set pointer %s", i, p.File.Short())
			b.SetPointer(p)
		case op < 10:
			f := file()
			o.step = fmt.Sprintf("%d: get pointer %s", i, f.Short())
			o.pointer, o.found = b.GetPointer(f)
		default:
			f := file()
			o.step = fmt.Sprintf("%d: remove pointer %s", i, f.Short())
			o.pointer, o.found = b.RemovePointer(f)
		}
		out = append(out, observe(t, b, o))
	}
	return out
}

// TestBackendConformance drives the same seeded sequence through every
// backend and requires the same answers after every step.
func TestBackendConformance(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var want []observation
		for i, be := range backends {
			got := drive(t, be.open(t, 2000), seed, 400)
			if i == 0 {
				want = got
				continue
			}
			for j := range want {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("seed %d, step %q: %s and %s disagree:\n%s: %+v\n%s: %+v",
						seed, want[j].step, backends[0].name, be.name, backends[0].name, want[j], be.name, got[j])
				}
			}
		}
	}
}

// TestBackendBasics pins the absolute behaviour the differential test
// cannot: what the answers are, not only that they agree.
func TestBackendBasics(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			s := be.open(t, 1000)
			content := contentFor(1, 300)
			if err := s.Add(store.Entry{File: fid(1), Size: 300, Kind: store.Primary, Content: content}); err != nil {
				t.Fatal(err)
			}
			if s.Used() != 300 || s.Free() != 700 || s.Len() != 1 || s.Utilization() != 0.3 {
				t.Fatalf("used=%d free=%d len=%d util=%g", s.Used(), s.Free(), s.Len(), s.Utilization())
			}
			if e, ok := s.Get(fid(1)); !ok || e.Size != 300 || e.Kind != store.Primary || string(e.Content) != string(content) {
				t.Fatalf("get = %+v, %v", e, ok)
			}
			if _, ok := s.Get(fid(2)); ok {
				t.Fatal("phantom entry")
			}
			if s.Add(store.Entry{File: fid(1), Size: 10}) == nil {
				t.Fatal("duplicate add must fail")
			}
			if s.Add(store.Entry{File: fid(2), Size: 701}) == nil {
				t.Fatal("add beyond free space must fail")
			}
			if s.Add(store.Entry{File: fid(2), Size: -1}) == nil {
				t.Fatal("negative size must fail")
			}
			// 700 free: the policy is SD/FN <= t on what is left.
			if !s.CanAccept(70, 0.1) || s.CanAccept(71, 0.1) {
				t.Fatal("acceptance threshold is not size/free <= t")
			}
			if e, ok := s.Remove(fid(1)); !ok || e.Size != 300 {
				t.Fatal("remove failed")
			}
			if _, ok := s.Remove(fid(1)); ok {
				t.Fatal("double remove must fail")
			}
			if s.Used() != 0 || s.Len() != 0 {
				t.Fatal("accounting after remove wrong")
			}

			b, c := id.NodeFromUint64(7), id.NodeFromUint64(9)
			s.SetPointer(store.Pointer{File: fid(1), Target: b, Size: 50, Role: store.DivertedOut})
			if p, ok := s.GetPointer(fid(1)); !ok || p.Target != b || p.Role != store.DivertedOut {
				t.Fatalf("pointer = %+v, %v", p, ok)
			}
			if s.Used() != 0 {
				t.Fatal("pointers must not consume space")
			}
			s.SetPointer(store.Pointer{File: fid(1), Target: c, Size: 50, Role: store.Backup})
			if p, _ := s.GetPointer(fid(1)); p.Target != c || p.Role != store.Backup {
				t.Fatal("pointer overwrite failed")
			}
			if _, ok := s.RemovePointer(fid(1)); !ok {
				t.Fatal("remove pointer failed")
			}
			if _, ok := s.RemovePointer(fid(1)); ok {
				t.Fatal("double pointer removal must fail")
			}
			if be.open(t, 0).Utilization() != 0 {
				t.Fatal("zero-capacity utilization must be 0")
			}
		})
	}
}
