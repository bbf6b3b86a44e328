package logstore

import (
	"bytes"
	"os"
	"path/filepath"
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

func mustOpenFlash(t testing.TB, dir string, capacity int64) *Flash {
	t.Helper()
	fl, err := OpenFlash(dir, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestFlashAppendReadRoundTrip(t *testing.T) {
	fl := mustOpenFlash(t, t.TempDir(), 1<<20)
	defer fl.Close()
	if b, n := fl.Usage(); b != 0 || n != 0 {
		t.Fatalf("fresh dir holds %d B in %d entries", b, n)
	}
	for n := uint64(0); n < 50; n++ {
		fl.Put(flashFid(n), flashPayload(n, 100+int(n)))
	}
	for n := uint64(0); n < 50; n++ {
		got, ok := fl.Get(flashFid(n))
		if !ok || !bytes.Equal(got, flashPayload(n, 100+int(n))) {
			t.Fatalf("get %d: ok=%v", n, ok)
		}
	}
	if _, n := fl.Usage(); n != 50 || fl.Spills() != 50 {
		t.Fatalf("%d entries after %d spills, want 50 and 50", n, fl.Spills())
	}

	// A location whose file id does not match must miss, not return
	// bytes, and leave the index.
	fl.idx[flashFid(999)] = fl.idx[flashFid(0)]
	if _, ok := fl.Get(flashFid(999)); ok {
		t.Fatal("get with mismatched file id succeeded")
	}
	if _, ok := fl.idx[flashFid(999)]; ok {
		t.Fatal("stale location stayed in the index")
	}

	// Content-less objects and objects that could never fit are skipped.
	fl.Put(flashFid(1000), nil)
	fl.Put(flashFid(1001), make([]byte, 1<<20-63))
	if fl.Spills() != 50 {
		t.Fatalf("filtered puts spilled: %d spills", fl.Spills())
	}
	if !fl.Remove(flashFid(3)) || fl.Remove(flashFid(3)) {
		t.Fatal("remove must report exactly once")
	}
	if _, ok := fl.Get(flashFid(3)); ok {
		t.Fatal("removed object still served")
	}
}

// TestFlashRotationAndDrop: puts past the capacity drop
// whole segments, oldest first, with their index entries; the newest
// objects stay served.
func TestFlashRotationAndDrop(t *testing.T) {
	const capacity = 16 << 10 // 4 KiB segments
	fl := mustOpenFlash(t, t.TempDir(), capacity)
	defer fl.Close()
	for n := uint64(0); n < 400; n++ {
		fl.Put(flashFid(n), flashPayload(n, 200))
		if b, _ := fl.Usage(); b > capacity+capacity/8 {
			t.Fatalf("after %d puts the tier holds %d B", n+1, b)
		}
	}
	if fl.Drops() == 0 {
		t.Fatal("no segment dropped under capacity pressure")
	}
	if _, ok := fl.Get(flashFid(0)); ok {
		t.Fatal("oldest object survived its segment's drop")
	}
	if got, ok := fl.Get(flashFid(399)); !ok || !bytes.Equal(got, flashPayload(399, 200)) {
		t.Fatal("newest object not served")
	}
	segs, _ := filepath.Glob(filepath.Join(fl.dir, "flash-*.seg"))
	if len(segs) != len(fl.segs) {
		t.Fatalf("%d segment files for %d live segments", len(segs), len(fl.segs))
	}
}

// A reopen after an unclean shutdown must recover every fully-written
// record and truncate a torn tail, never surfacing corrupt content.
func TestFlashRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	fl := mustOpenFlash(t, dir, 1<<20)
	for n := uint64(0); n < 20; n++ {
		fl.Put(flashFid(n), flashPayload(n, 300))
	}
	last := fl.idx[flashFid(19)]
	fl.Close() // no fsync; contents are whatever the OS has

	// Tear the tail: chop the last record in half.
	path := flashSegPath(dir, last.Seg)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-150); err != nil {
		t.Fatal(err)
	}

	fl2 := mustOpenFlash(t, dir, 1<<20)
	defer fl2.Close()
	if _, n := fl2.Usage(); n != 19 {
		t.Fatalf("recovered %d records, want 19 (torn tail dropped)", n)
	}
	for n := uint64(0); n < 20; n++ {
		got, ok := fl2.Get(flashFid(n))
		if ok != (n < 19) || ok && !bytes.Equal(got, flashPayload(n, 300)) {
			t.Fatalf("record %d: ok=%v after recovery", n, ok)
		}
	}
	// Appending after recovery lands on a clean boundary and reads back.
	fl2.Put(flashFid(99), flashPayload(99, 64))
	if got, ok := fl2.Get(flashFid(99)); !ok || !bytes.Equal(got, flashPayload(99, 64)) {
		t.Fatal("put after recovery unreadable")
	}
}

// A bit flip inside a record body truncates the scan at that record:
// earlier records survive, the damaged one and everything after are
// discarded.
func TestFlashRecoveryDiscardsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	fl := mustOpenFlash(t, dir, 1<<20)
	for n := uint64(0); n < 10; n++ {
		fl.Put(flashFid(n), flashPayload(n, 100))
	}
	loc := fl.idx[flashFid(5)]
	fl.Close()

	// Flip a byte inside record 5's content.
	path := flashSegPath(dir, loc.Seg)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[loc.Off+int64(segRecHeaderSize)+10] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	fl2 := mustOpenFlash(t, dir, 1<<20)
	defer fl2.Close()
	if _, n := fl2.Usage(); n != 5 {
		t.Fatalf("recovered %d records, want 5 (corrupt record truncates)", n)
	}
	for n := uint64(0); n < 10; n++ {
		if _, ok := fl2.Get(flashFid(n)); ok != (n < 5) {
			t.Fatalf("record %d: ok=%v after recovery", n, ok)
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
	fl := mustOpenFlash(t, dir, 1<<20)
	defer fl.Close()
	if b, n := fl.Usage(); b != 0 || n != 0 || len(fl.segs) != 0 {
		t.Fatalf("foreign file produced %d B, %d records, %d segments", b, n, len(fl.segs))
	}
	if _, err := os.Stat(flashSegPath(dir, 7)); !os.IsNotExist(err) {
		t.Fatal("foreign file not removed")
	}
}

// TestFlashEveryByteBoundary cuts one segment of six records at every
// byte and reopens it: the open succeeds, exactly the records that end
// at or before the cut are served byte-exact, and the reopened tier
// takes and serves a new put.
func TestFlashEveryByteBoundary(t *testing.T) {
	base := t.TempDir()
	img := filepath.Join(base, "img")
	fl := mustOpenFlash(t, img, 1<<20)
	sizes := []int{1, 40, 7, 64, 0, 23}
	ends := make([]int64, len(sizes))
	for i, size := range sizes {
		n := uint64(i)
		fl.Put(flashFid(n), flashPayload(n, size))
		loc := fl.idx[flashFid(n)]
		ends[i] = loc.Off + loc.RecordSize()
	}
	if len(fl.segs) != 1 {
		t.Fatalf("records spread over %d segments, want 1", len(fl.segs))
	}
	fl.Close()
	seg, err := os.ReadFile(flashSegPath(img, 1))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seg)) != ends[len(ends)-1] {
		t.Fatalf("segment is %d B, records end at %d", len(seg), ends[len(ends)-1])
	}

	extra, extraBody := flashFid(100), flashPayload(100, 33)
	for cut := 0; cut <= len(seg); cut++ {
		dir := filepath.Join(base, "cut")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flashSegPath(dir, 1), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenFlash(dir, 1<<20)
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		// The index is checked before any Get, which would drop a
		// stale entry it finds.
		whole, wantBytes := 0, int64(0)
		for whole < len(ends) && ends[whole] <= int64(cut) {
			wantBytes = ends[whole] - fileHeaderSize
			whole++
		}
		if b, n := fl.Usage(); b != wantBytes || n != int64(whole) {
			t.Fatalf("cut %d: %d B in %d entries, want %d B in %d", cut, b, n, wantBytes, whole)
		}
		for i, size := range sizes {
			n := uint64(i)
			if got, ok := fl.Get(flashFid(n)); ok != (i < whole) || ok && !bytes.Equal(got, flashPayload(n, size)) {
				t.Fatalf("cut %d: record %d (ends at %d) served=%v", cut, i, ends[i], ok)
			}
		}
		fl.Put(extra, extraBody)
		if got, ok := fl.Get(extra); !ok || !bytes.Equal(got, extraBody) {
			t.Fatalf("cut %d: put after reopen unreadable", cut)
		}
		fl.Close()
	}
}

// FuzzFlashSegment opens a segment of arbitrary bytes after the magic:
// the open never fails or panics, usage never exceeds the file, and
// whatever is indexed reads back.
func FuzzFlashSegment(f *testing.F) {
	var seg []byte
	for n := uint64(0); n < 3; n++ {
		rec, _ := encodeSegRecord(nil, flashFid(n), flashPayload(n, 10*int(n)))
		seg = append(seg, rec...)
		f.Add(bytes.Clone(seg))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, segRecHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		file := append([]byte(flashMagic), data...)
		if err := os.WriteFile(flashSegPath(dir, 1), file, 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenFlash(dir, 1<<20)
		if err != nil {
			t.Fatalf("open failed: %v", err)
		}
		defer fl.Close()
		if b, _ := fl.Usage(); b > int64(len(file)) {
			t.Fatalf("usage %d B exceeds the %d-byte file", b, len(file))
		}
		for k := range fl.idx {
			if _, ok := fl.Get(k); !ok {
				t.Fatalf("indexed %s does not read back", k.Short())
			}
		}
	})
}
