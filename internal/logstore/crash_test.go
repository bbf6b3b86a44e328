package logstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"past/internal/cert"
	"past/internal/id"
	"past/internal/store"
)

// oracleState is the expected metadata after a durable prefix of ops.
type oracleState struct {
	walOff   int64 // WAL offset after the op that produced this state
	entries  map[id.File]store.Entry
	contents map[id.File][]byte
	pointers map[id.File]store.Pointer
}

func (o oracleState) clone() oracleState {
	c := oracleState{
		walOff:   o.walOff,
		entries:  make(map[id.File]store.Entry, len(o.entries)),
		contents: make(map[id.File][]byte, len(o.contents)),
		pointers: make(map[id.File]store.Pointer, len(o.pointers)),
	}
	for k, v := range o.entries {
		c.entries[k] = v
	}
	for k, v := range o.contents {
		c.contents[k] = v
	}
	for k, v := range o.pointers {
		c.pointers[k] = v
	}
	return c
}

// runOpSequence applies n random seeded ops to a fresh store at dir and
// returns the state snapshot after every op that appended a WAL record
// (index 0 is the empty store).
func runOpSequence(t *testing.T, dir string, seed int64, n int) []oracleState {
	t.Helper()
	s := mustOpen(t, dir, testOpts())
	r := rand.New(rand.NewSource(seed))
	cur := oracleState{
		walOff:   fileHeaderSize,
		entries:  map[id.File]store.Entry{},
		contents: map[id.File][]byte{},
		pointers: map[id.File]store.Pointer{},
	}
	states := []oracleState{cur.clone()}
	var live []id.File
	var livePtr []id.File
	for i := 0; i < n; i++ {
		mutated := false
		switch op := r.Intn(10); {
		case op < 5: // add, usually with content
			f := fid(uint64(r.Intn(1 << 20)))
			if _, dup := cur.entries[f]; dup {
				continue
			}
			size := int64(r.Intn(300) + 1)
			e := store.Entry{File: f, Size: size, Kind: store.Kind(r.Intn(2))}
			var content []byte
			if r.Intn(4) != 0 {
				content = make([]byte, size)
				r.Read(content)
				e.Content = content
			}
			if err := s.Add(e); err != nil {
				t.Fatal(err)
			}
			e.Content = nil
			cur.entries[f] = e
			if content != nil {
				cur.contents[f] = content
			}
			live = append(live, f)
			mutated = true
		case op < 7: // remove a live entry
			if len(live) == 0 {
				continue
			}
			j := r.Intn(len(live))
			f := live[j]
			live = append(live[:j], live[j+1:]...)
			if _, ok := s.Remove(f); !ok {
				t.Fatalf("remove %s failed", f.Short())
			}
			delete(cur.entries, f)
			delete(cur.contents, f)
			mutated = true
		case op < 9: // set pointer
			f := fid(uint64(2_000_000 + r.Intn(1<<16)))
			p := store.Pointer{File: f, Target: id.NodeFromUint64(uint64(r.Intn(1 << 16))), Size: int64(r.Intn(100)), Role: store.PtrRole(r.Intn(2))}
			s.SetPointer(p)
			cur.pointers[f] = p
			livePtr = append(livePtr, f)
			mutated = true
		default: // remove pointer
			if len(livePtr) == 0 {
				continue
			}
			j := r.Intn(len(livePtr))
			f := livePtr[j]
			livePtr = append(livePtr[:j], livePtr[j+1:]...)
			if _, ok := s.RemovePointer(f); !ok {
				continue // duplicate SetPointer target already removed
			}
			delete(cur.pointers, f)
			mutated = true
		}
		if mutated {
			cur.walOff = s.log.walOff
			states = append(states, cur.clone())
		}
	}
	s.Kill() // crash: no checkpoint, no final sync
	return states
}

// copyDir clones a logstore directory so each truncation experiment
// starts from the same crashed image.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyAgainstOracle opens dir and asserts it matches the oracle state
// exactly on metadata, and content-wise returns either the right bytes
// or nothing (lost tail), never wrong bytes.
func verifyAgainstOracle(t *testing.T, dir string, want oracleState, label string) {
	t.Helper()
	s := mustOpen(t, dir, testOpts())
	defer s.Kill()
	if got := s.Len(); got != len(want.entries) {
		t.Fatalf("%s: len=%d want %d", label, got, len(want.entries))
	}
	for f, we := range want.entries {
		e, ok := s.Get(f)
		if !ok {
			t.Fatalf("%s: entry %s missing", label, f.Short())
		}
		if e.Size != we.Size || e.Kind != we.Kind || e.Owner != we.Owner {
			t.Fatalf("%s: entry %s metadata mismatch: %+v vs %+v", label, f.Short(), e, we)
		}
		if wc, hadContent := want.contents[f]; hadContent && e.Content != nil {
			if !bytes.Equal(e.Content, wc) {
				t.Fatalf("%s: entry %s surfaced wrong content", label, f.Short())
			}
		}
	}
	ptrs := s.Pointers()
	if len(ptrs) != len(want.pointers) {
		t.Fatalf("%s: pointers=%d want %d", label, len(ptrs), len(want.pointers))
	}
	for _, p := range ptrs {
		if want.pointers[p.File] != p {
			t.Fatalf("%s: pointer %s mismatch", label, p.File.Short())
		}
	}
}

// stateForOffset returns the last oracle state whose WAL offset fits
// within a WAL truncated to length n.
func stateForOffset(states []oracleState, n int64) oracleState {
	best := states[0]
	for _, st := range states {
		if st.walOff <= n {
			best = st
		}
	}
	return best
}

// TestCrashRecoveryEveryByteBoundary is the property test from the
// issue: run a seeded op sequence, crash, then truncate the WAL at
// every byte boundary of the tail record (and at every op boundary) and
// assert the reopened store equals the longest durable prefix.
func TestCrashRecoveryEveryByteBoundary(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := t.TempDir()
			img := filepath.Join(base, "img")
			states := runOpSequence(t, img, seed, 60)
			if len(states) < 10 {
				t.Fatalf("degenerate sequence: %d states", len(states))
			}
			walName := ""
			{
				seqs, err := listNumbered(img, "wal-", ".log")
				if err != nil || len(seqs) != 1 {
					t.Fatalf("want one WAL file: %v %v", seqs, err)
				}
				walName = filepath.Base(walPath(img, seqs[0]))
			}

			// Every op boundary.
			for i, st := range states {
				dir := filepath.Join(base, fmt.Sprintf("op%d", i))
				copyDir(t, img, dir)
				if err := os.Truncate(filepath.Join(dir, walName), st.walOff); err != nil {
					t.Fatal(err)
				}
				verifyAgainstOracle(t, dir, st, fmt.Sprintf("op boundary %d", i))
			}

			// Every byte boundary inside the tail record.
			last := states[len(states)-1]
			prev := states[len(states)-2]
			for n := prev.walOff; n < last.walOff; n++ {
				dir := filepath.Join(base, fmt.Sprintf("byte%d", n))
				copyDir(t, img, dir)
				if err := os.Truncate(filepath.Join(dir, walName), n); err != nil {
					t.Fatal(err)
				}
				verifyAgainstOracle(t, dir, stateForOffset(states, n), fmt.Sprintf("byte boundary %d", n))
			}
		})
	}
}

// TestCrashRecoveryBitFlipInTail flips each byte of the tail record in
// turn; the reopened store must fall back to the previous durable state
// (the corrupt record fails its CRC) and never surface corrupt data.
func TestCrashRecoveryBitFlipInTail(t *testing.T) {
	base := t.TempDir()
	img := filepath.Join(base, "img")
	states := runOpSequence(t, img, 99, 40)
	last, prev := states[len(states)-1], states[len(states)-2]
	seqs, _ := listNumbered(img, "wal-", ".log")
	walName := filepath.Base(walPath(img, seqs[0]))

	stride := int64(1)
	if last.walOff-prev.walOff > 64 {
		stride = 7 // sample large records; still hits header and payload
	}
	for off := prev.walOff; off < last.walOff; off += stride {
		dir := filepath.Join(base, fmt.Sprintf("flip%d", off))
		copyDir(t, img, dir)
		p := filepath.Join(dir, walName)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xa5
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		verifyAgainstOracle(t, dir, prev, fmt.Sprintf("bit flip at %d", off))
	}
}

// TestConcurrentOpsUnderGroupCommit hammers Add/Get/Remove/pointer ops
// from many goroutines under SyncAlways. Run with -race; it also checks
// final accounting exactly.
func TestConcurrentOpsUnderGroupCommit(t *testing.T) {
	opts := testOpts()
	opts.Sync = SyncAlways
	opts.SegmentTarget = 8192 // rotate often to stress the fd map
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				f := fid(uint64(w*perWorker + i))
				content := make([]byte, 64+r.Intn(128))
				r.Read(content)
				if err := s.Add(store.Entry{File: f, Size: int64(len(content)), Content: content}); err != nil {
					errs <- err
					return
				}
				if e, ok := s.Get(f); !ok || !bytes.Equal(e.Content, content) {
					errs <- fmt.Errorf("worker %d: read-own-write failed for %s", w, f.Short())
					return
				}
				if i%3 == 0 {
					if _, ok := s.Remove(f); !ok {
						errs <- fmt.Errorf("worker %d: remove failed", w)
						return
					}
				}
				if i%5 == 0 {
					s.SetPointer(store.Pointer{File: fid(uint64(1_000_000 + w*perWorker + i)), Target: id.NodeFromUint64(uint64(w)), Size: 1})
				}
				// Read a random other worker's key; must never see torn data.
				other := fid(uint64(r.Intn(workers * perWorker)))
				if e, ok := s.Get(other); ok && e.Content != nil {
					if int64(len(e.Content)) != e.Size {
						errs <- fmt.Errorf("torn read: content %d bytes, size %d", len(e.Content), e.Size)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	wantLen := 0
	var wantUsed int64
	for w := 0; w < workers; w++ {
		r := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWorker; i++ {
			n := 64 + r.Intn(128)
			buf := make([]byte, n)
			r.Read(buf)
			if i%3 != 0 {
				wantLen++
				wantUsed += int64(n)
			}
			r.Intn(workers * perWorker) // consume the "other" draw
		}
	}
	if s.Len() != wantLen || s.Used() != wantUsed {
		t.Fatalf("final accounting: len=%d used=%d want len=%d used=%d", s.Len(), s.Used(), wantLen, wantUsed)
	}
	if s.Stats().Fsyncs.Load() == 0 {
		t.Fatal("SyncAlways ran without fsyncs")
	}
}

// TestCheckpointDamageIsDetected: a checkpoint is written whole and
// renamed into place, so it has no legitimate torn state. Every byte
// flipped in turn, and every truncation, must make Open and Fsck fail —
// never produce a store that differs from what was checkpointed.
func TestCheckpointDamageIsDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "img")
	s := mustOpen(t, dir, testOpts())
	populate(t, s, 12)
	if err := s.Add(store.Entry{File: fid(99), Size: 7, Cert: &cert.FileCertificate{FileID: fid(99), K: 3, Owner: []byte("owner"), Sig: []byte("sig")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	refused := func(label string, damaged []byte) {
		t.Helper()
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, testOpts()); err == nil {
			s.Kill()
			t.Fatalf("%s: Open accepted the checkpoint", label)
		}
		if r, err := Fsck(dir); err == nil && r.OK() {
			t.Fatalf("%s: fsck passed the checkpoint:\n%s", label, r)
		}
	}
	for i := range pristine {
		damaged := append([]byte(nil), pristine...)
		damaged[i] ^= 0xa5
		refused(fmt.Sprintf("byte %d of %d flipped", i, len(pristine)), damaged)
	}
	for n := range pristine {
		refused(fmt.Sprintf("cut at %d of %d", n, len(pristine)), pristine[:n])
	}

	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, testOpts())
	defer s.Kill()
	checkPopulated(t, s, 12)
	if e, ok := s.Get(fid(99)); !ok || e.Cert == nil || string(e.Cert.Owner) != "owner" || s.Len() != 13 {
		t.Fatalf("pristine checkpoint no longer opens to what was stored: %+v %v len=%d", e, ok, s.Len())
	}
}
