package loadgen

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"past/internal/admit"
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

var wireOnce sync.Once

// startTCPCluster brings up n PAST nodes on loopback sockets, the
// first bootstrapped and the rest joined through it.
func startTCPCluster(t *testing.T, n int, seed int64, cfg past.Config) []*transport.TCP {
	t.Helper()
	wireOnce.Do(func() {
		wire.RegisterWire()
		past.RegisterWire()
	})
	rng := rand.New(rand.NewSource(seed))
	var trs []*transport.TCP
	for i := 0; i < n; i++ {
		var nid id.Node
		rng.Read(nid[:])
		tr, err := transport.New(nid, "127.0.0.1:0", topology.DefaultPlane.RandomPoint(rng))
		if err != nil {
			t.Fatal(err)
		}
		node := past.NewWithStore(nid, tr, cfg, store.New(1<<26), rng.Int63())
		tr.Serve(node)
		if i == 0 {
			node.Overlay().Bootstrap()
		} else {
			bootID, err := tr.Bootstrap(trs[0].Addr())
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Overlay().Join(bootID); err != nil {
				t.Fatal(err)
			}
		}
		trs = append(trs, tr)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

func TestRunOverTCP(t *testing.T) {
	// The same driver that runs the virtual-time experiments drives a
	// real socket cluster through the client RPCs, including an
	// admission gate at the access point: everything resolves as
	// served, not-found (open-loop reordering), or a wire-coded shed.
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 3
	cfg.Admit = &admit.Config{Rate: 400, Burst: 16, Depth: 32}
	trs := startTCPCluster(t, 5, 1, cfg)

	var cid id.Node
	rand.New(rand.NewSource(99)).Read(cid[:])
	ct, err := transport.New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	run := DefaultSimConfig()
	run.Rate, run.Requests, run.Seed, run.SLO = 300, 120, 4, 2*time.Second
	run.Workload = Workload{Files: 16, Alpha: 0.8, LookupFrac: 0.75, MaxPayload: 512}
	res, err := Run(run, 8, AddrClient{T: ct, Addr: trs[2].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 120 {
		t.Fatalf("issued %d of 120", res.Issued)
	}
	if res.OK == 0 || res.Latency.Count() == 0 {
		t.Fatalf("nothing served over TCP: %s", res)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected hard errors over TCP: %s", res)
	}
	if res.P(99) <= 0 {
		t.Fatalf("no latency recorded: %s", res)
	}
}
