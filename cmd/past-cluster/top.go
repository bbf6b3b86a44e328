package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"past/internal/daemon"
	"past/internal/fleetobs"
	"past/internal/obs"
)

// runTop implements "past-cluster top", the live fleet dashboard: it
// polls every listed pastd's observability registry (ClientObsReport
// RPC) through the fleetobs aggregation plane and renders fleet-level
// rates plus a per-node table in place, top-style.
//
//	past-cluster top -nodes 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//
// With -serve the same scraper additionally serves the aggregator's
// combined /metrics endpoint (per-node series plus a node="fleet"
// aggregate), so one dashboard doubles as the fleet's Prometheus target:
//
//	past-cluster top -nodes ... -serve 127.0.0.1:9090
func runTop(args []string) int {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	var (
		nodes    = fs.String("nodes", "", "comma-separated pastd client addresses (host:port,...)")
		interval = fs.Duration("interval", 2*time.Second, "poll period")
		frames   = fs.Int("frames", 0, "number of frames to render before exiting (0: run until interrupted)")
		plain    = fs.Bool("plain", false, "append frames instead of redrawing in place (for logs and pipes)")
		serve    = fs.String("serve", "", "also serve the aggregator HTTP plane (/metrics, /nodes, /healthz) on this address")
	)
	fs.Parse(args)
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "usage: past-cluster top -nodes host:port[,host:port...] [-interval 2s] [-frames N] [-plain] [-serve addr]")
		return 2
	}

	tr, err := daemon.NewClient()
	if err != nil {
		fmt.Fprintf(os.Stderr, "past-cluster top: %v\n", err)
		return 1
	}
	defer tr.Close()

	addrs := strings.Split(*nodes, ",")
	targets := make([]fleetobs.Target, len(addrs))
	for i, a := range addrs {
		targets[i] = fleetobs.Target{Name: fmt.Sprintf("node%02d", i), Addr: strings.TrimSpace(a)}
	}
	scraper := fleetobs.NewScraper(tr, targets)

	if *serve != "" {
		go func() {
			if err := http.ListenAndServe(*serve, fleetobs.NewHandler(scraper)); err != nil {
				log.Fatalf("past-cluster top: serve: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "past-cluster top: aggregator on http://%s/metrics\n", *serve)
	}

	var prev *fleetobs.Sample
	var prevWhen time.Time
	for frame := 0; *frames == 0 || frame < *frames; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		sample := scraper.Poll()
		out := renderTop(sample, prev, time.Since(prevWhen))
		if !*plain {
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Print(out)
		prev, prevWhen = sample, time.Now()
	}
	return 0
}

// renderTop draws one frame: fleet totals and rates, then the node
// table with per-node windowed p99 and outlier marking.
func renderTop(s, prev *fleetobs.Sample, elapsed time.Duration) string {
	var b strings.Builder
	merged := s.Merged()
	fmt.Fprintf(&b, "past-cluster top  poll %d  %d/%d nodes live  %s\n",
		s.Seq, s.Live, len(s.Nodes), s.When.Format("15:04:05"))

	rate := func(name string) string {
		if prev == nil || elapsed <= 0 {
			return "-"
		}
		d := s.Totals.Counters[name] - prev.Totals.Counters[name]
		return fmt.Sprintf("%.1f/s", float64(d)/elapsed.Seconds())
	}
	fmt.Fprintf(&b, "fleet: lookups %d (%s)  inserts %d (%s)  reroutes %d  sheds %d  rpc-errors %d\n",
		merged.Get(obs.CtrLookups), rate(obs.CtrLookups),
		merged.Get(obs.CtrInserts), rate(obs.CtrInserts),
		merged.Get(obs.CtrReroutes), merged.Get(obs.CtrOverloadHops), merged.Get(obs.CtrRPCErrors))
	hits := merged.Get(obs.CtrCacheRAMHits)
	fhits := merged.Get(obs.CtrCacheFlashHits)
	fmt.Fprintf(&b, "cache: ram-hits %d  flash-hits %d  misses %d  store %dB in %d replicas\n",
		hits, fhits, merged.Get(obs.CtrCacheMisses),
		merged.Get(obs.CtrStoreBytes), merged.Get(obs.CtrStoreReplicas))
	if n := merged.TotalRPCs(); n > 0 {
		fmt.Fprintf(&b, "rpc:   %d calls  p50=%v p99=%v (cumulative)\n",
			n, merged.RPCQuantile(50).Round(time.Microsecond), merged.RPCQuantile(99).Round(time.Microsecond))
	}

	// Outlier mark: a live node whose windowed p99 is at least 4x the
	// median of the live nodes' windowed p99s this frame.
	p99s := make([]time.Duration, 0, len(s.Nodes))
	for i := range s.Nodes {
		if s.Nodes[i].Live() {
			p99s = append(p99s, s.Nodes[i].Window.RPCQuantile(99))
		}
	}
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	var median time.Duration
	if len(p99s) > 0 {
		median = p99s[len(p99s)/2]
	}

	fmt.Fprintf(&b, "%-8s %-10s %10s %9s %9s %10s %9s\n",
		"node", "id", "lookups", "inserts", "store", "win-p99", "flags")
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		if !ns.Live() {
			fmt.Fprintf(&b, "%-8s %-10s DOWN  %s\n", ns.Target.Name, "-", ns.Err)
			continue
		}
		p99 := ns.Window.RPCQuantile(99)
		var flags []string
		if ns.Restarted {
			flags = append(flags, "RESTARTED")
		}
		if median > 0 && p99 >= 4*median {
			flags = append(flags, "SLOW")
		}
		fmt.Fprintf(&b, "%-8s %-10s %10d %9d %8dB %10v %9s\n",
			ns.Target.Name, ns.Node.Short(),
			ns.Snap.Get(obs.CtrLookups), ns.Snap.Get(obs.CtrInserts),
			ns.Snap.Get(obs.CtrStoreBytes), p99.Round(time.Microsecond), strings.Join(flags, ","))
	}
	return b.String()
}
