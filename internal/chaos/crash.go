package chaos

// This file adds crash-fault injection for the durable storage engine:
// a multi-life harness that drives a seeded op sequence against a
// logstore, kills it without a clean shutdown, mutilates the log tail
// the way a power cut would, reopens, and checks the recovered state
// against an oracle of what was durable. Complements the network chaos
// in this package: that one shakes the overlay, this one shakes the
// disk.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"past/internal/id"
	"past/internal/logstore"
	"past/internal/store"
)

// CrashConfig parameterizes a crash soak.
type CrashConfig struct {
	Dir    string // logstore directory (created if missing)
	Seed   int64
	Lives  int // kill/recover cycles
	OpsPer int // mutations per life
}

const (
	// crashMaxTruncate bounds how many bytes a simulated power cut may
	// shave off the WAL tail.
	crashMaxTruncate = 256
	crashCapacity    = 1 << 30
)

func (c CrashConfig) withDefaults() CrashConfig {
	if c.Lives == 0 {
		c.Lives = 5
	}
	if c.OpsPer == 0 {
		c.OpsPer = 200
	}
	return c
}

// CrashReport summarizes a crash soak.
type CrashReport struct {
	Lives        int
	Ops          int
	Truncated    int64 // total bytes shaved off WAL tails
	LostOps      int   // ops rolled back by tail loss (expected, counted)
	RecoveredOK  int   // lives whose recovery matched the oracle
	FsckOK       bool  // final fsck verdict
	Fingerprint  string
	FinalEntries int
}

// RunCrash executes a deterministic crash soak: every life applies
// OpsPer random mutations, records the WAL offset after each, kills the
// store mid-flight, truncates a random number of tail bytes, reopens,
// and asserts the recovered metadata equals the oracle prefix that
// survived the cut. Returns an error on any invariant violation; the
// fingerprint is a stable hash of the full op/crash/recovery history.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: crash soak needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	rep := &CrashReport{Lives: cfg.Lives}
	h := sha256.New()
	note := func(format string, args ...any) {
		fmt.Fprintf(h, format+"\n", args...)
	}

	// The oracle tracks durable metadata across lives. Within a life,
	// snapshots[i] is the oracle after the i-th successful op.
	type snap struct {
		walOff   int64
		entries  map[id.File]store.Entry
		pointers map[id.File]store.Pointer
	}
	durable := snap{entries: map[id.File]store.Entry{}, pointers: map[id.File]store.Pointer{}}
	cloneSnap := func(s snap) snap {
		c := snap{walOff: s.walOff, entries: make(map[id.File]store.Entry, len(s.entries)), pointers: make(map[id.File]store.Pointer, len(s.pointers))}
		for k, v := range s.entries {
			c.entries[k] = v
		}
		for k, v := range s.pointers {
			c.pointers[k] = v
		}
		return c
	}

	opts := logstore.Options{Capacity: crashCapacity, Sync: logstore.SyncNever, CheckpointBytes: -1, CompactRatio: -1}
	for life := 0; life < cfg.Lives; life++ {
		s, err := logstore.Open(cfg.Dir, opts)
		if err != nil {
			return rep, fmt.Errorf("chaos: life %d open: %w", life, err)
		}
		// Recovery check: the reopened store must equal the durable oracle.
		if err := crashCompare(s, durable.entries, durable.pointers); err != nil {
			s.Kill()
			return rep, fmt.Errorf("chaos: life %d recovery mismatch: %w", life, err)
		}
		rep.RecoveredOK++
		note("life %d recovered entries=%d pointers=%d", life, len(durable.entries), len(durable.pointers))

		cur := cloneSnap(durable)
		_, cur.walOff = s.WALFile()
		snaps := []snap{cloneSnap(cur)}
		var live []id.File
		for f := range cur.entries {
			live = append(live, f)
		}
		sort.Slice(live, func(i, j int) bool { return bytes.Compare(live[i][:], live[j][:]) < 0 })
		var livePtr []id.File
		for f := range cur.pointers {
			livePtr = append(livePtr, f)
		}
		sort.Slice(livePtr, func(i, j int) bool { return bytes.Compare(livePtr[i][:], livePtr[j][:]) < 0 })

		for i := 0; i < cfg.OpsPer; i++ {
			mutated := false
			switch op := r.Intn(10); {
			case op < 5:
				f := crashFid(r.Uint64() % (1 << 24))
				if _, dup := cur.entries[f]; dup {
					continue
				}
				size := int64(r.Intn(200) + 1)
				e := store.Entry{File: f, Size: size, Kind: store.Kind(r.Intn(2))}
				if r.Intn(3) != 0 {
					e.Content = crashContent(f, int(size))
				}
				if err := s.Add(e); err != nil {
					s.Kill()
					return rep, fmt.Errorf("chaos: life %d add: %w", life, err)
				}
				e.Content = nil
				cur.entries[f] = e
				live = append(live, f)
				mutated = true
			case op < 7:
				if len(live) == 0 {
					continue
				}
				j := r.Intn(len(live))
				f := live[j]
				live = append(live[:j], live[j+1:]...)
				if _, ok := s.Remove(f); !ok {
					s.Kill()
					return rep, fmt.Errorf("chaos: life %d remove %s failed", life, f.Short())
				}
				delete(cur.entries, f)
				mutated = true
			case op < 9:
				f := crashFid(1<<32 + r.Uint64()%(1<<16))
				p := store.Pointer{File: f, Target: id.NodeFromUint64(r.Uint64() % (1 << 16)), Size: int64(r.Intn(50)), Role: store.PtrRole(r.Intn(2))}
				s.SetPointer(p)
				if _, had := cur.pointers[f]; !had {
					livePtr = append(livePtr, f)
				}
				cur.pointers[f] = p
				mutated = true
			default:
				if len(livePtr) == 0 {
					continue
				}
				j := r.Intn(len(livePtr))
				f := livePtr[j]
				livePtr = append(livePtr[:j], livePtr[j+1:]...)
				if _, ok := s.RemovePointer(f); !ok {
					s.Kill()
					return rep, fmt.Errorf("chaos: life %d remove pointer failed", life)
				}
				delete(cur.pointers, f)
				mutated = true
			}
			if mutated {
				rep.Ops++
				_, cur.walOff = s.WALFile()
				snaps = append(snaps, cloneSnap(cur))
			}
		}

		// Power cut: kill without sync, then shave a random tail.
		walPath, walLen := s.WALFile()
		s.Kill()
		cut := int64(r.Intn(crashMaxTruncate + 1))
		newLen := walLen - cut
		if min := snaps[0].walOff; newLen < min {
			newLen = min // never cut into a previous life's durable state
		}
		if err := os.Truncate(walPath, newLen); err != nil {
			return rep, fmt.Errorf("chaos: life %d truncate: %w", life, err)
		}
		rep.Truncated += walLen - newLen
		note("life %d cut %d bytes (wal %d -> %d)", life, walLen-newLen, walLen, newLen)

		// The new durable state is the longest snapshot that fits.
		best := snaps[0]
		for _, sn := range snaps {
			if sn.walOff <= newLen {
				best = sn
			}
		}
		for _, sn := range snaps[1:] {
			if sn.walOff > newLen {
				rep.LostOps++
			}
		}
		durable = cloneSnap(best)
	}

	// Final life: reopen, verify, fsck, close cleanly.
	s, err := logstore.Open(cfg.Dir, opts)
	if err != nil {
		return rep, fmt.Errorf("chaos: final open: %w", err)
	}
	if err := crashCompare(s, durable.entries, durable.pointers); err != nil {
		s.Kill()
		return rep, fmt.Errorf("chaos: final recovery mismatch: %w", err)
	}
	rep.FinalEntries = s.Len()
	if err := s.Close(); err != nil {
		return rep, fmt.Errorf("chaos: final close: %w", err)
	}
	fr, err := logstore.Fsck(cfg.Dir)
	if err != nil {
		return rep, err
	}
	rep.FsckOK = fr.OK()
	if !rep.FsckOK {
		return rep, fmt.Errorf("chaos: final fsck found corruption:\n%s", fr)
	}
	note("final entries=%d fsck=ok", rep.FinalEntries)
	rep.Fingerprint = fmt.Sprintf("%x", h.Sum(nil))[:16]
	return rep, nil
}

// crashCompare asserts a recovered store's metadata equals the oracle,
// and that any surfaced content matches its deterministic expectation.
func crashCompare(s *logstore.Store, entries map[id.File]store.Entry, pointers map[id.File]store.Pointer) error {
	if s.Len() != len(entries) {
		return fmt.Errorf("len=%d want %d", s.Len(), len(entries))
	}
	for f, we := range entries {
		e, ok := s.Get(f)
		if !ok {
			return fmt.Errorf("entry %s missing", f.Short())
		}
		if e.Size != we.Size || e.Kind != we.Kind {
			return fmt.Errorf("entry %s metadata mismatch", f.Short())
		}
		if e.Content != nil && !bytes.Equal(e.Content, crashContent(f, int(we.Size))) {
			return fmt.Errorf("entry %s surfaced wrong content", f.Short())
		}
	}
	got := s.Pointers()
	if len(got) != len(pointers) {
		return fmt.Errorf("pointers=%d want %d", len(got), len(pointers))
	}
	for _, p := range got {
		if pointers[p.File] != p {
			return fmt.Errorf("pointer %s mismatch", p.File.Short())
		}
	}
	return nil
}

// crashFid derives a file id from a counter, and crashContent derives
// that file's content deterministically, so the oracle never has to
// store payloads.
func crashFid(n uint64) id.File { return id.NewFile("crash", nil, n) }

func crashContent(f id.File, size int) []byte {
	seed := int64(binary.BigEndian.Uint64(f[:8]))
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, size)
	r.Read(b)
	return b
}
