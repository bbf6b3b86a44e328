package logstore

import (
	"bytes"
	"testing"

	"past/internal/id"
	"past/internal/store"
)

// TestAllocBudgetAdd holds a durable insert to one allocation — the
// index entry. The segment record is framed in the store's scratch and
// the WAL record in walBuf, so the payload is copied once, by pwrite.
func TestAllocBudgetAdd(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	body := contentFor(1, 4<<10)
	files := make([]id.File, 400)
	for i := range files {
		files[i] = fid(uint64(i))
	}
	next := 0
	add := func() {
		if err := s.Add(store.Entry{File: files[next], Size: int64(len(body)), Content: body}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 100; i++ {
		add() // grow the scratch and the index maps
	}
	if got := testing.AllocsPerRun(200, add); got > 1 {
		t.Fatalf("Add of 4 KiB made %v allocations; want at most 1", got)
	}
}

// TestSegScratchIsReleasedAboveLimit: one huge record must not pin a
// huge framing buffer, in the store or in the flash tier, and the
// records framed before and after it read back intact.
func TestSegScratchIsReleasedAboveLimit(t *testing.T) {
	small, huge := contentFor(2, 4<<10), contentFor(3, maxSegScratch+1)

	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	fl := mustOpenFlash(t, t.TempDir(), 64<<20)
	defer fl.Close()

	for i, content := range [][]byte{small, huge, small} {
		if err := s.Add(store.Entry{File: fid(uint64(i)), Size: int64(len(content)), Content: content}); err != nil {
			t.Fatal(err)
		}
		fl.Put(fid(uint64(i)), content)
		wantKept := len(content) <= maxSegScratch
		if kept := s.log.segBuf != nil; kept != wantKept {
			t.Fatalf("store scratch kept=%v after a %d-byte record", kept, len(content))
		}
		if kept := fl.buf != nil; kept != wantKept {
			t.Fatalf("flash scratch kept=%v after a %d-byte record", kept, len(content))
		}
	}
	for i, content := range [][]byte{small, huge, small} {
		if e, ok := s.Get(fid(uint64(i))); !ok || !bytes.Equal(e.Content, content) {
			t.Fatalf("store record %d did not read back", i)
		}
		if got, ok := fl.Get(fid(uint64(i))); !ok || !bytes.Equal(got, content) {
			t.Fatalf("flash record %d did not read back", i)
		}
	}
}
