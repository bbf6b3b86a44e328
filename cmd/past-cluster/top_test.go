package main

import (
	"strings"
	"testing"
	"time"

	"past/internal/fleetobs"
	"past/internal/id"
	"past/internal/obs"
)

// window returns a latency histogram with n RPCs in bucket i.
func window(i int, n int64) obs.Snapshot {
	lat := make([]int64, obs.LatencyBucketCount)
	lat[i] = n
	return obs.Snapshot{RPCLat: lat}
}

func snap(counters map[string]int64) obs.Snapshot { return obs.Snapshot{Counters: counters} }

// TestRenderTopFrame renders a fabricated four-node poll and its
// predecessor: fleet rates over the elapsed time, one node down, one
// restarted with a windowed p99 far above the fleet median.
func TestRenderTopFrame(t *testing.T) {
	when := time.Date(2024, 1, 2, 8, 59, 35, 0, time.UTC)
	live := func(name string, n uint64, lookups int64, w obs.Snapshot) fleetobs.NodeSample {
		s := snap(map[string]int64{obs.CtrLookups: lookups, obs.CtrInserts: 1, obs.CtrStoreBytes: 300})
		return fleetobs.NodeSample{Target: fleetobs.Target{Name: name}, Node: id.NodeFromUint64(n), Snap: s, Window: w}
	}
	slow := live("node01", 2, 12, window(12, 100)) // p99 in [2ms, 4ms)
	slow.Restarted = true
	cur := &fleetobs.Sample{
		Seq: 2, When: when, Live: 3,
		Nodes: []fleetobs.NodeSample{
			live("node00", 1, 9, window(3, 100)), // p99 in [4us, 8us)
			slow,
			live("node02", 3, 9, window(3, 100)),
			{Target: fleetobs.Target{Name: "node03"}, Err: "connection refused"},
		},
		Totals: snap(map[string]int64{obs.CtrLookups: 30, obs.CtrInserts: 4, obs.CtrReroutes: 2}),
		Fleet:  snap(map[string]int64{obs.CtrStoreBytes: 900, obs.CtrLookups: 99}),
	}
	prev := &fleetobs.Sample{Totals: snap(map[string]int64{obs.CtrLookups: 10, obs.CtrInserts: 2})}

	frame := renderTop(cur, prev, 2*time.Second)
	lines := strings.Split(frame, "\n")
	for i, want := range []string{
		"past-cluster top  poll 2  3/4 nodes live  08:59:35",
		// Counters come from the restart-proof totals, gauges from the
		// current snapshots: the Fleet lookup count of 99 is ignored.
		"fleet: lookups 30 (10.0/s)  inserts 4 (1.0/s)  reroutes 2  sheds 0  rpc-errors 0",
		"cache: ram-hits 0  flash-hits 0  misses 0  store 900B in 0 replicas",
		"node     id            lookups   inserts     store    win-p99     flags",
	} {
		if lines[i] != want {
			t.Errorf("line %d = %q\nwant       %q", i, lines[i], want)
		}
	}
	rows := lines[4:8]
	if !strings.HasPrefix(rows[0], "node00") || strings.Contains(rows[0], "SLOW") || strings.Contains(rows[0], "RESTARTED") {
		t.Errorf("healthy node row: %q", rows[0])
	}
	if !strings.HasPrefix(rows[1], "node01") || !strings.HasSuffix(rows[1], "RESTARTED,SLOW") {
		t.Errorf("restarted outlier row: %q", rows[1])
	}
	if want := "node03   -          DOWN  connection refused"; rows[3] != want {
		t.Errorf("down row = %q, want %q", rows[3], want)
	}

	// The first frame has no predecessor: rates print as "-".
	if first := renderTop(cur, nil, 0); !strings.Contains(first, "lookups 30 (-)  inserts 4 (-)") {
		t.Errorf("first frame rates:\n%s", first)
	}
}
