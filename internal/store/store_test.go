package store

import (
	"testing"

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
