package cachengine

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"past/internal/cache"
)

// TestFlashCrashRecovery simulates an unclean stop: an engine spills a
// working set to flash, the process "dies" (no Close), the segment
// files are damaged the way a crash damages them (torn tail on the
// active segment, a flipped byte mid-file on an older one), and a new
// engine opens the same directory. The contract is recover-or-discard:
// every Get must return either the exact original bytes or a clean
// miss — never corrupt data — and the recovered tier must keep working.
func TestFlashCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Policy: cache.GDS,
		Flash:  &FlashConfig{Dir: dir, Capacity: 64 << 10},
	}

	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1.SetLimit(1 << 10)

	// Small RAM, many files: almost everything spills to flash across
	// several segments.
	const nFiles = 128
	contents := map[uint64][]byte{}
	for n := uint64(0); n < nFiles; n++ {
		f := efid(n)
		contents[n] = epayload(f, 256)
		e1.Insert(f, 256, contents[n])
	}
	if st := e1.Stats(); st.FlashSpills == 0 || st.FlashEntries == 0 {
		t.Fatalf("setup produced no spills: %+v", st)
	}
	// Crash: no e1.Close(). Damage the segments directly.
	segs, err := filepath.Glob(filepath.Join(dir, "flash-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v (%v)", segs, err)
	}
	sort.Strings(segs)

	// Torn tail on the newest segment: append half a record.
	newest := segs[len(segs)-1]
	fh, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(make([]byte, 13)); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	// Bit flip in the middle of the oldest segment's record area.
	oldest := segs[0]
	blob, err := os.ReadFile(oldest)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(oldest, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer e2.Close()
	e2.SetLimit(1 << 10)

	recovered := 0
	for n := uint64(0); n < nFiles; n++ {
		f := efid(n)
		size, got, ok := e2.Get(f)
		if !ok {
			continue // discarded — acceptable
		}
		if size != 256 || !bytes.Equal(got, contents[n]) {
			t.Fatalf("file %d: recovered wrong bytes (size %d)", n, size)
		}
		recovered++
	}
	// The flip kills part of one segment, the torn tail is truncated;
	// the bulk must survive.
	if recovered == 0 {
		t.Fatal("recovery discarded everything")
	}
	t.Logf("recovered %d/%d files", recovered, nFiles)

	// The recovered tier must accept new spills and serve them.
	extra := efid(9999)
	want := epayload(extra, 256)
	e2.Insert(extra, 256, want)
	for n := uint64(0); n < 16; n++ { // push it out of RAM
		f := efid(100000 + n)
		e2.Insert(f, 256, epayload(f, 256))
	}
	flashHits := e2.Stats().FlashHits
	if _, got, ok := e2.Get(extra); !ok || !bytes.Equal(got, want) || e2.Stats().FlashHits != flashHits+1 {
		t.Fatal("post-recovery spill not served from flash")
	}
}

// TestFlashCleanReopen: a clean Close/reopen keeps the whole index.
func TestFlashCleanReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Policy: cache.GDS,
		Flash:  &FlashConfig{Dir: dir, Capacity: 64 << 10},
	}
	e1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1.SetLimit(1 << 10)
	for n := uint64(0); n < 32; n++ {
		f := efid(n)
		e1.Insert(f, 512, epayload(f, 512))
	}
	spilled := e1.Stats().FlashEntries
	if spilled == 0 {
		t.Fatal("no spills")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Stats().FlashEntries; got != spilled {
		t.Fatalf("reopened with %d flash entries, want %d", got, spilled)
	}
	e2.SetLimit(1 << 10)
	for n := uint64(0); n < 32; n++ {
		f := efid(n)
		if _, got, ok := e2.Get(f); ok {
			if !bytes.Equal(got, epayload(f, 512)) {
				t.Fatalf("file %d: wrong bytes after reopen", n)
			}
		}
	}
}
