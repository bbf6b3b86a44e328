package logstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"past/internal/id"
	"past/internal/store"
)

func fid(n uint64) id.File { return id.NewFile("f", nil, n) }

func testOpts() Options {
	return Options{Capacity: 1 << 30, Sync: SyncNever, CheckpointBytes: -1, CompactRatio: -1}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func contentFor(n uint64, size int) []byte {
	r := rand.New(rand.NewSource(int64(n)))
	b := make([]byte, size)
	r.Read(b)
	return b
}

// populate adds n entries (content on the even ones) and a pointer per
// multiple of 5, returning the expected state.
func populate(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		e := store.Entry{File: fid(uint64(i)), Size: int64(16 + i), Kind: store.Primary}
		if i%2 == 0 {
			e.Content = contentFor(uint64(i), 16+i)
			e.Kind = store.DivertedIn
			e.Owner = id.NodeFromUint64(uint64(i))
		}
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			s.SetPointer(store.Pointer{File: fid(uint64(1000 + i)), Target: id.NodeFromUint64(uint64(i)), Size: int64(i), Role: store.Backup})
		}
	}
}

// checkPopulated asserts the state written by populate survived (it
// does not bound Len, so callers may add entries beyond populate's).
func checkPopulated(t *testing.T, s *Store, n int) {
	t.Helper()
	if s.Len() < n {
		t.Fatalf("len=%d want >=%d", s.Len(), n)
	}
	for i := 1; i <= n; i++ {
		e, ok := s.Get(fid(uint64(i)))
		if !ok || e.Size != int64(16+i) {
			t.Fatalf("entry %d: ok=%v %+v", i, ok, e)
		}
		if i%2 == 0 {
			if !bytes.Equal(e.Content, contentFor(uint64(i), 16+i)) {
				t.Fatalf("entry %d content mismatch", i)
			}
			if e.Kind != store.DivertedIn || e.Owner != id.NodeFromUint64(uint64(i)) {
				t.Fatalf("entry %d metadata: %+v", i, e)
			}
		}
		if i%5 == 0 {
			p, ok := s.GetPointer(fid(uint64(1000 + i)))
			if !ok || p.Target != id.NodeFromUint64(uint64(i)) || p.Role != store.Backup {
				t.Fatalf("pointer %d: ok=%v %+v", i, ok, p)
			}
		}
	}
}

func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	populate(t, s, 40)
	entries, pointers := s.Entries(), s.Pointers()
	used := s.Used()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	checkPopulated(t, s2, 40)
	if s2.Used() != used {
		t.Fatalf("used=%d want %d", s2.Used(), used)
	}
	if !reflect.DeepEqual(s2.Entries(), entries) {
		t.Fatal("Entries() differ after reopen")
	}
	if !reflect.DeepEqual(s2.Pointers(), pointers) {
		t.Fatal("Pointers() differ after reopen")
	}
}

func TestReopenWithoutCloseReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	populate(t, s, 25)
	s.Remove(fid(3))
	s.RemovePointer(fid(1005))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Kill() // no checkpoint: recovery must replay the WAL

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if s2.Len() != 24 {
		t.Fatalf("len=%d want 24", s2.Len())
	}
	if _, ok := s2.Get(fid(3)); ok {
		t.Fatal("removed entry resurrected")
	}
	if _, ok := s2.GetPointer(fid(1005)); ok {
		t.Fatal("removed pointer resurrected")
	}
	if s2.Stats().RecoveredRecords.Load() == 0 {
		t.Fatal("no WAL records replayed")
	}
}

func TestCheckpointShortensRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	populate(t, s, 30)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Checkpoints.Load(); got != 1 {
		t.Fatalf("checkpoints=%d", got)
	}
	// Post-checkpoint mutations land in the fresh WAL.
	if err := s.Add(store.Entry{File: fid(99), Size: 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Kill()

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	checkPopulated(t, s2, 30)
	if _, ok := s2.Get(fid(99)); !ok {
		t.Fatal("post-checkpoint add lost")
	}
	// Only the post-checkpoint records should have been replayed.
	if n := s2.Stats().RecoveredRecords.Load(); n != 1 {
		t.Fatalf("replayed %d records, want 1", n)
	}
}

func TestSegmentRotationAndGet(t *testing.T) {
	opts := testOpts()
	opts.SegmentTarget = 4096 // force frequent rotation
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	for i := 1; i <= 30; i++ {
		c := contentFor(uint64(i), 700)
		if err := s.Add(store.Entry{File: fid(uint64(i)), Size: 700, Content: c}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().SegRotations.Load() < 4 {
		t.Fatalf("rotations=%d, want several", s.Stats().SegRotations.Load())
	}
	for i := 1; i <= 30; i++ {
		e, ok := s.Get(fid(uint64(i)))
		if !ok || !bytes.Equal(e.Content, contentFor(uint64(i), 700)) {
			t.Fatalf("entry %d unreadable after rotation", i)
		}
	}
}

func TestCompaction(t *testing.T) {
	opts := testOpts()
	opts.SegmentTarget = 4096
	opts.CompactRatio = 0.5
	dir := t.TempDir()
	s := mustOpen(t, dir, opts)
	for i := 1; i <= 40; i++ {
		c := contentFor(uint64(i), 600)
		if err := s.Add(store.Entry{File: fid(uint64(i)), Size: 600, Content: c}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill most entries so sealed segments drop below the live threshold.
	for i := 1; i <= 40; i++ {
		if i%4 != 0 {
			s.Remove(fid(uint64(i)))
		}
	}
	compacted := 0
	for {
		did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
		compacted++
	}
	if compacted == 0 {
		t.Fatal("nothing compacted")
	}
	if s.Stats().Compactions.Load() != int64(compacted) {
		t.Fatal("compaction counter mismatch")
	}
	// Survivors still readable, through relocation.
	for i := 4; i <= 40; i += 4 {
		e, ok := s.Get(fid(uint64(i)))
		if !ok || !bytes.Equal(e.Content, contentFor(uint64(i), 600)) {
			t.Fatalf("entry %d lost by compaction", i)
		}
	}
	// And across a restart: relocate records must be in the WAL.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, opts)
	defer s2.Close()
	for i := 4; i <= 40; i += 4 {
		e, ok := s2.Get(fid(uint64(i)))
		if !ok || !bytes.Equal(e.Content, contentFor(uint64(i), 600)) {
			t.Fatalf("entry %d lost after compaction+restart", i)
		}
	}
	r, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("fsck after compaction:\n%s", r)
	}
}

// TestReadsRaceCompaction runs Get, Stat, Entries and GetPointer from
// several goroutines while writers Add and Remove and CompactOnce
// relocates every sealed segment, over and over. The readers read two
// hot files that every round moves, so a Get that looked up a location
// just before a relocation reads again at the new one, and again if a
// second relocation overtook it: every read returns the exact bytes.
func TestReadsRaceCompaction(t *testing.T) {
	opts := testOpts()
	opts.SegmentTarget = 4096
	opts.CompactRatio = 0.5
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()

	const size = 600
	hot := []uint64{1, 2}
	for _, i := range hot {
		if err := s.Add(store.Entry{File: fid(i), Size: size, Content: contentFor(i, size)}); err != nil {
			t.Fatal(err)
		}
		s.SetPointer(store.Pointer{File: fid(1000 + i), Target: id.NodeFromUint64(i), Size: size})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 5) // each of the 5 goroutines fails at most once
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; !stopped(); k++ {
				i := hot[k%len(hot)]
				if e, ok := s.Get(fid(i)); !ok || !bytes.Equal(e.Content, contentFor(i, size)) {
					fail("Get %d: ok=%v, %d content bytes", i, ok, len(e.Content))
					return
				}
				if e, ok := s.Stat(fid(i)); !ok || e.Size != size {
					fail("Stat %d: ok=%v %+v", i, ok, e)
					return
				}
				if p, ok := s.GetPointer(fid(1000 + i)); !ok || p.Target != id.NodeFromUint64(i) {
					fail("GetPointer %d: ok=%v %+v", i, ok, p)
					return
				}
				if k%8 == 0 && len(s.Entries()) < len(hot) {
					fail("Entries lost a hot file")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(0); !stopped(); k++ {
			f := fid(1<<20 + k)
			if err := s.Add(store.Entry{File: f, Size: 64, Content: contentFor(k, 64)}); err != nil {
				fail("Add: %v", err)
				return
			}
			if _, ok := s.Remove(f); !ok {
				fail("Remove %s failed", f.Short())
				return
			}
		}
	}()

	// Each round seals the hot files' segment behind dead fillers, so
	// it falls below the live ratio, and compacts until nothing is left
	// to compact: the hot files move once a round.
	before := s.Stats().Compactions.Load()
	for round := uint64(0); round < 100; round++ {
		for j := uint64(0); j < 6; j++ {
			f := fid(1<<30 + round<<8 + j)
			if err := s.Add(store.Entry{File: f, Size: size, Content: contentFor(j, size)}); err != nil {
				t.Fatal(err)
			}
			s.Remove(f)
		}
		for {
			did, err := s.CompactOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !did {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if moved := s.Stats().Compactions.Load() - before; moved < 100 {
		t.Fatalf("only %d compactions in 100 rounds", moved)
	}
	if n := s.Stats().ChecksumFailures.Load(); n != 0 {
		t.Fatalf("%d checksum failures", n)
	}
}

// BenchmarkGetParallel reads 4 KiB replicas from every goroutine at
// once: one index read lock and one segment pread per Get.
func BenchmarkGetParallel(b *testing.B) {
	s, err := Open(b.TempDir(), testOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := make([]id.File, 1024)
	for i := range keys {
		keys[i] = fid(uint64(i))
		if err := s.Add(store.Entry{File: keys[i], Size: 4096, Content: contentFor(uint64(i), 4096)}); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(next.Add(97)); pb.Next(); i++ {
			if e, ok := s.Get(keys[i%len(keys)]); !ok || len(e.Content) != 4096 {
				b.Error("missing content")
				return
			}
		}
	})
}

func TestObsCounters(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	if err := s.Add(store.Entry{File: fid(1), Size: 5, Content: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	m := s.ObsCounters()
	if m["logstore_wal_appends_total"] != 1 {
		t.Fatalf("wal appends counter: %v", m)
	}
	if m["logstore_segments"] != 1 {
		t.Fatalf("segments gauge: %v", m)
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	populate(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("clean store flagged:\n%s", r)
	}

	// Flip a content byte inside a referenced segment record.
	segs, err := listNumbered(dir, "seg-", ".seg")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	path := segPath(dir, uint32(segs[0]))
	data, err := readFileForTest(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := writeFileForTest(path, data); err != nil {
		t.Fatal(err)
	}
	r, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatalf("corruption not detected:\n%s", r)
	}
}

func TestGetWithholdsCorruptContent(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	c := contentFor(7, 256)
	if err := s.Add(store.Entry{File: fid(7), Size: 256, Content: c}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored content on disk, then reopen.
	segs, _ := listNumbered(dir, "seg-", ".seg")
	path := segPath(dir, uint32(segs[0]))
	data, err := readFileForTest(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x55
	if err := writeFileForTest(path, data); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	e, ok := s2.Get(fid(7))
	if !ok {
		t.Fatal("metadata must survive content corruption")
	}
	if e.Content != nil {
		t.Fatal("corrupt content surfaced")
	}
	if s2.Stats().ChecksumFailures.Load() == 0 {
		t.Fatal("checksum failure not counted")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("%s: %v %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("round-trip %s -> %s", tc.in, got)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestClosedStoreRefusesMutations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(store.Entry{File: fid(1), Size: 1}); err == nil {
		t.Fatal("add on closed store succeeded")
	}
	if _, ok := s.Remove(fid(1)); ok {
		t.Fatal("remove on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

func readFileForTest(path string) ([]byte, error)  { return os.ReadFile(path) }
func writeFileForTest(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

// TestRotationSealsSegmentDurably verifies that sealing a segment
// fsyncs it: under SyncNever with checkpoints disabled, the only fsync
// source is rotateSegmentLocked, so the counter must track rotations.
// Without the seal-sync, content acknowledged just before a rotation
// could vanish in a crash even though its WAL record was fsynced.
func TestRotationSealsSegmentDurably(t *testing.T) {
	opts := testOpts()
	opts.SegmentTarget = 1024
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()

	for i := uint64(0); i < 8; i++ {
		content := contentFor(i, 512)
		if err := s.Add(store.Entry{File: fid(i), Size: int64(len(content)), Content: content}); err != nil {
			t.Fatal(err)
		}
	}
	rot := s.Stats().SegRotations.Load()
	if rot < 2 {
		t.Fatalf("expected multiple rotations, got %d", rot)
	}
	// First Add creates segment 1 via rotate (no predecessor to seal);
	// every later rotation must have fsynced the outgoing segment.
	if got := s.Stats().Fsyncs.Load(); got < rot-1 {
		t.Fatalf("rotations=%d but only %d fsyncs: sealed segments not synced", rot, got)
	}
}

// TestCloseRacesCheckpoint hammers explicit Checkpoint calls and
// auto-checkpoint kicks (tiny CheckpointBytes) while Close runs. Run
// with -race: this used to trip bg.Add-vs-bg.Wait WaitGroup misuse and
// let two checkpoint bodies interleave, which could commit a stale
// snapshot after a newer one had deleted the WAL files it points at.
func TestCloseRacesCheckpoint(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		opts := testOpts()
		opts.CheckpointBytes = 256 // kick a checkpoint every few ops
		s := mustOpen(t, dir, opts)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					n := uint64(round*1_000_000 + w*10_000 + i)
					f := fid(n)
					content := contentFor(n, 64)
					_ = s.Add(store.Entry{File: f, Size: 64, Content: content})
					if i%7 == 0 {
						_ = s.Checkpoint()
					}
				}
			}()
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if err := s.Checkpoint(); err != errClosed {
			t.Fatalf("Checkpoint after Close: got %v, want errClosed", err)
		}

		// The directory must reopen cleanly and hold every entry whose
		// Add succeeded before Close won the race.
		entriesBefore := s.Len()
		s2 := mustOpen(t, dir, testOpts())
		if got := s2.Len(); got != entriesBefore {
			t.Fatalf("round %d: reopened with %d entries, closed with %d", round, got, entriesBefore)
		}
		s2.Close()
	}
}
