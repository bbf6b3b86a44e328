package fleetobs_test

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"past/internal/cluster"
	"past/internal/daemon"
	"past/internal/fleetobs"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/topology"
	"past/internal/transport"
)

// TestMain is the self-exec pivot: re-executed with the daemon sentinel
// in the environment, this binary IS a pastd process.
func TestMain(m *testing.M) {
	cluster.MaybeRunDaemon(daemon.Run)
	os.Exit(m.Run())
}

// TestFleetObsLive is the fleet-observability demo against a real
// multi-process cluster (`make fleet-obs-demo` runs exactly this): boot
// five pastd processes, push traffic through them, then assert that
// (a) the aggregated /metrics endpoint materializes per-node series
// plus the node="fleet" aggregate, and (b) a client-initiated trace
// comes back stitched across at least two distinct processes with
// per-hop RPC latencies.
func TestFleetObsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live multi-process demo (run via make fleet-obs-demo)")
	}
	c, err := cluster.Start(cluster.Config{Nodes: 5, Seed: 77, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("start fleet: %v", err)
	}
	defer c.Close()

	const files = 8
	ids := make([]id.File, files)
	for i := 0; i < files; i++ {
		f, err := c.InsertVia(i%5, fmt.Sprintf("obs-%d", i), []byte(strings.Repeat("x", 64+i)))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids[i] = f
	}
	for i, f := range ids {
		found, _, err := c.LookupVia((i+2)%5, f)
		if err != nil || !found {
			t.Fatalf("lookup %d: found=%v err=%v", i, found, err)
		}
	}

	// Node status is the counters snapshot: every process reports
	// itself joined in its ClientObsReport.
	for i := range c.Procs {
		_, snap, err := c.ObsReport(i)
		if err != nil {
			t.Fatalf("obs report %d: %v", i, err)
		}
		if got := snap.Get(obs.CtrOverlayJoined); got != 1 {
			t.Errorf("node %d: overlay_joined = %d, want 1", i, got)
		}
	}

	// The aggregation plane: its own client transport, one target per
	// process, the combined endpoint over a scrape-on-request scraper.
	var cid id.Node
	if _, err := rand.Read(cid[:]); err != nil {
		t.Fatal(err)
	}
	tr, err := transport.New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	targets := make([]fleetobs.Target, len(c.Procs))
	for i, p := range c.Procs {
		targets[i] = fleetobs.Target{Name: fmt.Sprintf("node%02d", i), Addr: p.Addr}
	}
	scraper := fleetobs.NewScraper(tr, targets)
	srv := httptest.NewServer(fleetobs.NewHandler(scraper))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	exposition := string(body)
	for _, want := range []string{
		`past_inserts_total{node="node00"}`,
		`past_inserts_total{node="node04"}`,
		`past_lookups_total{node="fleet"}`,
		`past_rpc_latency_seconds_bucket{node="fleet",le="+Inf"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	sample := scraper.Last()
	if sample == nil || sample.Live != 5 {
		t.Fatalf("scrape: sample=%v", sample)
	}
	merged := sample.Merged()
	if got := merged.Get(obs.CtrInserts); got < files {
		t.Errorf("fleet inserts = %d, want >= %d", got, files)
	}
	if got := merged.Get(obs.CtrLookups); got < files {
		t.Errorf("fleet lookups = %d, want >= %d", got, files)
	}

	// Cross-process trace: a fresh trace context rides the client RPC to
	// the access point and the RouteRequest across relays; the stitched
	// route must name at least two distinct processes and carry a wall-
	// clock latency on every forwarding hop. With 8 keys and 5 access
	// points, at least one (key, access point) pair routes remotely.
	client, err := daemon.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	traceVia := func(i int, f id.File) (*past.ClientLookupReply, error) {
		tc := obs.TraceContext{ID: obs.NewTraceID(), Sampled: true, Budget: obs.DefaultTraceBudget}
		ctx := obs.ContextWithTrace(context.Background(), tc)
		return netsim.ReplyAs[past.ClientLookupReply](client.InvokeAddrContext(ctx, c.Procs[i].Addr, &past.ClientLookup{File: f}))
	}
	var lr *past.ClientLookupReply
	bestProcs := 0
search:
	for _, f := range ids {
		for i := 0; i < 5; i++ {
			reply, err := traceVia(i, f)
			if err != nil {
				t.Fatalf("trace via %d: %v", i, err)
			}
			if !reply.Found {
				t.Fatalf("trace via %d: file %s not found", i, f.Short())
			}
			procs := make(map[id.Node]bool)
			for _, h := range reply.Trace {
				procs[h.From] = true
			}
			if len(procs) >= 2 {
				lr, bestProcs = reply, len(procs)
				break search
			}
		}
	}
	if lr == nil {
		t.Fatal("no trace crossed a process boundary across 8 keys x 5 access points")
	}
	if lr.TraceID == 0 {
		t.Error("stitched trace lost its trace id")
	}
	forwards := 0
	for _, h := range lr.Trace {
		if h.From != h.To && !h.Failed {
			forwards++
			if h.RPCNanos <= 0 {
				t.Errorf("forwarding hop %s has no RPC latency", h)
			}
		}
	}
	if forwards == 0 {
		t.Error("multi-process trace has no forwarding hop records")
	}
	t.Logf("trace %016x: %d records, %d processes", lr.TraceID, len(lr.Trace), bestProcs)
}
