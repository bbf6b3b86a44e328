package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"past/internal/cluster"
	"past/internal/daemon"
	"past/internal/id"
	"past/internal/obs"
)

// TestMain is the self-exec pivot: when the test binary is re-executed
// with the daemon sentinel in the environment, it IS a pastd process.
func TestMain(m *testing.M) {
	cluster.MaybeRunDaemon(daemon.Run)
	os.Exit(m.Run())
}

// startFleet boots a fleet under the test's temp dir, registers a
// cleanup that tears it down, and dumps per-node process logs when the
// test fails.
func startFleet(t *testing.T, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	c, err := cluster.Start(cfg)
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		if t.Failed() {
			for _, p := range c.Procs {
				data, err := os.ReadFile(p.LogPath)
				if err != nil {
					continue
				}
				if len(data) > 8*1024 {
					data = data[len(data)-8*1024:]
				}
				t.Logf("--- node %d log tail ---\n%s", p.Index, data)
			}
		}
	})
	return c
}

// waitClean polls the live invariant check until it comes back with no
// violations or the deadline passes.
func waitClean(t *testing.T, c *cluster.Cluster, files []id.File, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		violations, err := c.CheckInvariants(files, 0)
		if err == nil && len(violations) == 0 {
			return
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("invariant check did not go clean in %v: %v", timeout, err)
			}
			for _, v := range violations {
				t.Errorf("lingering violation: %s", v)
			}
			t.Fatalf("%d violation(s) after %v", len(violations), timeout)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

func TestFleetBootInsertLookup(t *testing.T) {
	c := startFleet(t, cluster.Config{Nodes: 5, Seed: 42})

	type entry struct {
		file id.File
		sum  [32]byte
	}
	var files []entry
	var ids []id.File
	for j := 0; j < 6; j++ {
		content := bytes.Repeat([]byte{byte(j + 1)}, 512+j*100)
		fid, err := c.InsertVia(j%5, fmt.Sprintf("boot-%d", j), content)
		if err != nil {
			t.Fatalf("insert %d: %v", j, err)
		}
		files = append(files, entry{file: fid, sum: sha256.Sum256(content)})
		ids = append(ids, fid)
	}
	waitClean(t, c, ids, 30*time.Second)

	for j, e := range files {
		found, content, err := c.LookupVia((j+2)%5, e.file)
		if err != nil {
			t.Fatalf("lookup %d: %v", j, err)
		}
		if !found {
			t.Fatalf("file %d (%s) not found", j, e.file.Short())
		}
		if sha256.Sum256(content) != e.sum {
			t.Fatalf("file %d (%s) content mismatch", j, e.file.Short())
		}
	}

	_, snap, err := c.ObsReport(0)
	if err != nil {
		t.Fatalf("obs report: %v", err)
	}
	if snap.Get(obs.CtrOverlayJoined) != 1 || snap.Get(obs.CtrLeafSetSize) == 0 {
		t.Fatalf("node 0 after 5-node boot: overlay_joined=%d leaf_set_size=%d",
			snap.Get(obs.CtrOverlayJoined), snap.Get(obs.CtrLeafSetSize))
	}
}

// TestSigtermCleanCloseSigkillRecovery is the process-fault satellite:
// one node is SIGTERMed mid-insert-stream and must close its store
// clean (its next life replays zero WAL records), another is SIGKILLed
// and must come back through logstore recovery — with every acked write
// still retrievable byte for byte and both stores fsck-clean.
func TestSigtermCleanCloseSigkillRecovery(t *testing.T) {
	c := startFleet(t, cluster.Config{Nodes: 5, Seed: 7})

	type acked struct {
		file id.File
		sum  [32]byte
	}
	var (
		mu    sync.Mutex
		writs []acked
		stop  = make(chan struct{})
		done  = make(chan struct{})
	)
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(writs)
	}
	// The insert stream: access points rotate over nodes 0-2 (the
	// survivors), so the stream keeps flowing while 3 and 4 take faults.
	go func() {
		defer close(done)
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			content := make([]byte, 256+(j%7)*128)
			for i := range content {
				content[i] = byte(j + i)
			}
			fid, err := c.InsertVia(j%3, fmt.Sprintf("stream-%d", j), content)
			if err == nil {
				mu.Lock()
				writs = append(writs, acked{file: fid, sum: sha256.Sum256(content)})
				mu.Unlock()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Let the stream establish itself before faulting.
	for deadline := time.Now().Add(20 * time.Second); ackedCount() < 5; {
		if time.Now().After(deadline) {
			t.Fatal("insert stream never acked 5 writes")
		}
		time.Sleep(50 * time.Millisecond)
	}

	if err := c.Terminate(3); err != nil {
		t.Fatalf("graceful leave: %v", err)
	}
	if err := c.Kill(4); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// A few more acked writes with two nodes down, then stop.
	low := ackedCount()
	for deadline := time.Now().Add(20 * time.Second); ackedCount() < low+3; {
		if time.Now().After(deadline) {
			t.Fatal("insert stream stalled after faults")
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	<-done

	// Both stores must verify clean while their processes are down.
	if err := c.Fsck(3); err != nil {
		t.Fatalf("fsck after graceful leave: %v", err)
	}
	if err := c.Fsck(4); err != nil {
		t.Fatalf("fsck after SIGKILL: %v", err)
	}

	if err := c.Restart(3); err != nil {
		t.Fatalf("restart 3: %v", err)
	}
	if err := c.Restart(4); err != nil {
		t.Fatalf("restart 4: %v", err)
	}

	// The graceful node checkpointed at close: its new life replays
	// nothing. (The SIGKILLed node's replay count is workload-dependent,
	// so only the clean-close side is pinned.)
	_, snap, err := c.ObsReport(3)
	if err != nil {
		t.Fatalf("obs report: %v", err)
	}
	if _, ok := snap.Counters[obs.CtrRecoveredRecords]; !ok {
		t.Fatalf("snapshot carries no %s", obs.CtrRecoveredRecords)
	}
	if replayed := snap.Get(obs.CtrRecoveredRecords); replayed != 0 {
		t.Fatalf("SIGTERM node replayed %d WAL records; clean close must checkpoint", replayed)
	}

	mu.Lock()
	all := append([]acked(nil), writs...)
	mu.Unlock()
	ids := make([]id.File, len(all))
	for i, w := range all {
		ids[i] = w.file
	}
	waitClean(t, c, ids, 60*time.Second)

	// Zero acked-write loss: every acknowledged insert is retrievable
	// with identical bytes.
	for i, w := range all {
		var found bool
		var content []byte
		for attempt := 0; attempt < 5 && !found; attempt++ {
			ap := (i + attempt) % 5
			ok, got, err := c.LookupVia(ap, w.file)
			if err == nil && ok {
				found, content = true, got
			} else {
				time.Sleep(200 * time.Millisecond)
			}
		}
		if !found {
			t.Fatalf("acked write %d (%s) lost", i, w.file.Short())
		}
		if sha256.Sum256(content) != w.sum {
			t.Fatalf("acked write %d (%s) corrupted", i, w.file.Short())
		}
	}
}
