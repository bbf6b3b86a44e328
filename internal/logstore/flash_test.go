package logstore

import (
	"bytes"
	"os"
	"testing"

	"past/internal/id"
)

func flashFid(n uint64) id.File { return id.NewFile("flash", nil, n) }

func flashPayload(n uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(n + uint64(i))
	}
	return b
}

func TestFlashAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fl, recs, err := OpenFlash(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(recs))
	}
	locs := make(map[uint64]Loc)
	for n := uint64(0); n < 50; n++ {
		loc, err := fl.Append(flashFid(n), flashPayload(n, 100+int(n)))
		if err != nil {
			t.Fatal(err)
		}
		locs[n] = loc
	}
	for n, loc := range locs {
		got, ok := fl.Read(flashFid(n), loc)
		if !ok || !bytes.Equal(got, flashPayload(n, 100+int(n))) {
			t.Fatalf("read %d: ok=%v", n, ok)
		}
	}
	// A read against the wrong file id must miss, not return bytes.
	if _, ok := fl.Read(flashFid(999), locs[0]); ok {
		t.Fatal("read with mismatched file id succeeded")
	}
	fl.Close()
}

func TestFlashRotationAndDrop(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := OpenFlash(dir, 1024) // tiny target: rotate often
	if err != nil {
		t.Fatal(err)
	}
	for n := uint64(0); n < 40; n++ {
		if _, err := fl.Append(flashFid(n), flashPayload(n, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if fl.Segments() < 3 {
		t.Fatalf("expected multiple segments, got %d", fl.Segments())
	}
	before := fl.Bytes()
	oldest, ok := fl.OldestSegment()
	if !ok {
		t.Fatal("no droppable segment")
	}
	freed := fl.DropSegment(oldest)
	if freed <= 0 || fl.Bytes() != before-freed {
		t.Fatalf("drop freed %d, bytes %d -> %d", freed, before, fl.Bytes())
	}
	if fl.DropSegment(oldest) != 0 {
		t.Fatal("double drop freed bytes")
	}
	fl.Close()
}

// A reopen after an unclean shutdown must recover every fully-written
// record and truncate a torn tail, never surfacing corrupt content.
func TestFlashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := OpenFlash(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var lastLoc Loc
	for n := uint64(0); n < 20; n++ {
		lastLoc, err = fl.Append(flashFid(n), flashPayload(n, 300))
		if err != nil {
			t.Fatal(err)
		}
	}
	fl.Close() // no fsync; contents are whatever the OS has

	// Tear the tail: chop the last record in half.
	path := flashSegPath(dir, lastLoc.Seg)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-150); err != nil {
		t.Fatal(err)
	}

	fl2, recs, err := OpenFlash(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if len(recs) != 19 {
		t.Fatalf("recovered %d records, want 19 (torn tail dropped)", len(recs))
	}
	for _, r := range recs {
		got, ok := fl2.Read(r.File, r.Loc)
		if !ok {
			t.Fatalf("recovered record %s unreadable", r.File.Short())
		}
		if len(got) != 300 {
			t.Fatalf("recovered record has %d bytes", len(got))
		}
	}
	// Appending after recovery lands on a clean boundary and reads back.
	loc, err := fl2.Append(flashFid(99), flashPayload(99, 64))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := fl2.Read(flashFid(99), loc); !ok || !bytes.Equal(got, flashPayload(99, 64)) {
		t.Fatal("append after recovery unreadable")
	}
}

// A bit flip inside a record body truncates the scan at that record:
// earlier records survive, the damaged one and everything after are
// discarded.
func TestFlashRecoveryDiscardsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := OpenFlash(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var locs []Loc
	for n := uint64(0); n < 10; n++ {
		loc, err := fl.Append(flashFid(n), flashPayload(n, 100))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	fl.Close()

	// Flip a byte inside record 5's content.
	path := flashSegPath(dir, locs[5].Seg)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[locs[5].Off+int64(segRecHeaderSize)+10] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	fl2, recs, err := OpenFlash(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want 5 (corrupt record truncates)", len(recs))
	}
	for i, r := range recs {
		if _, ok := fl2.Read(r.File, r.Loc); !ok {
			t.Fatalf("surviving record %d unreadable", i)
		}
	}
}

// A non-flash file in the directory (wrong magic) is discarded, not
// scanned.
func TestFlashOpenDiscardsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(flashSegPath(dir, 7), []byte("NOTFLASH-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	fl, recs, err := OpenFlash(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if len(recs) != 0 || fl.Segments() != 0 {
		t.Fatalf("foreign file produced records (%d) or segments (%d)", len(recs), fl.Segments())
	}
	if _, err := os.Stat(flashSegPath(dir, 7)); !os.IsNotExist(err) {
		t.Fatal("foreign file not removed")
	}
}
