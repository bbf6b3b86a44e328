package store

import (
	"bytes"
	"testing"

	"past/internal/cert"
	"past/internal/id"
)

func fid(n uint64) id.File { return id.NewFile("f", nil, n) }

func TestCanAcceptPolicy(t *testing.T) {
	s := New(1000)
	// Empty node, t=0.1: accepts files up to 100 bytes.
	if !s.CanAccept(100, 0.1) {
		t.Fatal("100/1000 = 0.1 <= 0.1 must be accepted")
	}
	if s.CanAccept(101, 0.1) {
		t.Fatal("101/1000 > 0.1 must be rejected")
	}
	// Zero-size files always accepted (both traces contain them).
	if !s.CanAccept(0, 0.0001) {
		t.Fatal("zero-size must be accepted")
	}
	// As the node fills, the acceptable size shrinks: the policy
	// discriminates against large files at high utilization (sec 3.3.1).
	if err := s.Add(Entry{File: fid(1), Size: 900}); err != nil {
		t.Fatal(err)
	}
	if s.CanAccept(11, 0.1) {
		t.Fatal("11/100 > 0.1 must be rejected on the fuller node")
	}
	if !s.CanAccept(10, 0.1) {
		t.Fatal("10/100 <= 0.1 must be accepted")
	}
	// Full node rejects everything but zero-size.
	if err := s.Add(Entry{File: fid(2), Size: 100}); err != nil {
		t.Fatal(err)
	}
	if s.CanAccept(1, 1.0) {
		t.Fatal("full node must reject")
	}
	if !s.CanAccept(0, 1.0) {
		t.Fatal("full node still accepts zero-size")
	}
	if s.CanAccept(-5, 1.0) {
		t.Fatal("negative size must be rejected")
	}
}

func TestTpriBaselineDisablesDiversion(t *testing.T) {
	// The paper's no-diversion baseline sets tpri=1: any file that fits
	// in free space is accepted.
	s := New(1000)
	if !s.CanAccept(1000, 1) {
		t.Fatal("tpri=1 must accept a file equal to free space")
	}
	if s.CanAccept(1001, 1) {
		t.Fatal("a file larger than free space must be rejected even at tpri=1")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(-1)
}

func BenchmarkAddRemove(b *testing.B) {
	s := New(1 << 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := fid(uint64(i))
		if err := s.Add(Entry{File: f, Size: 1024}); err != nil {
			b.Fatal(err)
		}
		if _, ok := s.Remove(f); !ok {
			b.Fatal("remove failed")
		}
	}
}

// TestAllocBudgetStore: the file table holds no per-entry heap object.
// A size-only replica (every emulated insert) and a pointer cost no
// allocation at all once the maps have room, and an entry with content
// and a certificate costs one: the store copies the content once, as a
// disk would, and keeps the caller's certificate.
func TestAllocBudgetStore(t *testing.T) {
	s := New(1 << 40)
	for i := uint64(0); i < 64; i++ { // a settled table, as on a node mid-replay
		if err := s.Add(Entry{File: fid(1000 + i), Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f := fid(1)
	content := []byte("replica payload")
	fc := &cert.FileCertificate{FileID: f, K: 3}
	cases := []struct {
		name string
		want float64
		op   func()
	}{
		{"size-only Add/Get/Remove", 0, func() {
			if err := s.Add(Entry{File: f, Size: 4096, Kind: DivertedIn, Owner: id.NodeFromUint64(7)}); err != nil {
				t.Fatal(err)
			}
			if e, ok := s.Get(f); !ok || e.Size != 4096 || e.Owner != id.NodeFromUint64(7) {
				t.Fatalf("get = %+v, %v", e, ok)
			}
			if _, ok := s.Remove(f); !ok {
				t.Fatal("remove failed")
			}
		}},
		{"SetPointer/GetPointer/RemovePointer", 0, func() {
			s.SetPointer(Pointer{File: f, Target: id.NodeFromUint64(9), Size: 4096, Role: Backup})
			if p, ok := s.GetPointer(f); !ok || p.Role != Backup {
				t.Fatalf("pointer = %+v, %v", p, ok)
			}
			if _, ok := s.RemovePointer(f); !ok {
				t.Fatal("remove pointer failed")
			}
		}},
		{"content and cert Add/Get/Remove", 1, func() {
			if err := s.Add(Entry{File: f, Size: int64(len(content)), Content: content, Cert: fc}); err != nil {
				t.Fatal(err)
			}
			if e, ok := s.Get(f); !ok || &e.Content[0] == &content[0] || !bytes.Equal(e.Content, content) || e.Cert != fc {
				t.Fatalf("get = %+v, %v: content must be copied once, cert the caller's", e, ok)
			}
			if e, ok := s.Remove(f); !ok || e.Content != nil || e.Cert != fc {
				t.Fatalf("remove = %+v, %v: metadata and cert, no content", e, ok)
			}
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.op); got != c.want {
			t.Errorf("%s: %.1f allocations per run, want %v", c.name, got, c.want)
		}
	}
}
