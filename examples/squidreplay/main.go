// Squid replay: drive PAST with a real web-proxy access log — the
// exact input format of the paper's NLANR evaluation. Anyone holding
// such logs can reproduce the paper's experiments on their own data;
// this example writes a small synthetic log in squid format, parses it
// back, and replays it (first URL reference inserts, repeats look up),
// reporting utilization, hit rate, and fetch distance.
//
//	go run ./examples/squidreplay [access.log]
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"past/internal/experiments"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/stats"
	"past/internal/trace"
)

func main() {
	var records []trace.SquidRecord
	var err error
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		records, err = trace.ReadSquidLog(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("parsed %d records from %s\n", len(records), os.Args[1])
	} else {
		records, err = trace.ReadSquidLog(strings.NewReader(syntheticLog()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("no log given; generated %d synthetic squid records\n", len(records))
	}
	if err := replay(os.Stdout, records); err != nil {
		log.Fatal(err)
	}
}

// replay turns the records into a workload and drives a 20-node cluster
// with it through the section 5.2 replay (each site's clients issue
// from nodes near one another), writing the workload's shape and the
// replay's results to out.
func replay(out io.Writer, records []trace.SquidRecord) error {
	w, err := trace.FromSquid(records, 8, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: %d events, %d unique URLs, %d clients, %.1f MB content\n",
		len(w.Events), w.Files, w.Clients, float64(w.TotalBytes)/(1<<20))

	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	// Size the network so the workload lands around 90% utilization.
	perNode := w.TotalBytes * int64(cfg.K) * 10 / 9 / 20
	col := metrics.NewCollector(20*perNode, 1)
	cfg.Monitor = col
	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        20,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return perNode },
		Seed:     99,
	})
	if err != nil {
		return err
	}
	if err := experiments.ReplayWeb(cluster, w, col, 99); err != nil {
		return err
	}
	fmt.Fprintf(out, "replay done: utilization %.1f%%, %d failed inserts\n",
		100*cluster.Utilization(), col.Totals().Failed)
	if hops, hitRate, lookups := col.GlobalLookupStats(); lookups > 0 {
		fmt.Fprintf(out, "lookups: %d, cache hit rate %.1f%%, mean fetch distance %.2f hops\n",
			lookups, 100*hitRate, hops)
	}
	return nil
}

// syntheticLog fabricates a squid-format access log with Zipf-popular
// URLs from 32 clients.
func syntheticLog() string {
	r := stats.NewRand(7)
	z := stats.NewZipf(2000, 0.8)
	sizes := make([]int64, 2000)
	// Modest sizes keep the toy 20-node network in the regime where
	// most files fit (the paper ran 2250 nodes at 1000x the capacity).
	ln := stats.LogNormalFromMedianMean(300, 2400)
	for i := range sizes {
		sizes[i] = int64(ln.Sample(r)) + 1
	}
	var b strings.Builder
	b.WriteString("# synthetic squid access.log\n")
	for i := 0; i < 12000; i++ {
		u := z.Rank(r)
		fmt.Fprintf(&b, "%d.%03d %d 10.0.%d.%d TCP_MISS/200 %d GET http://synthetic.example/obj%d - DIRECT/1.2.3.4 text/html\n",
			983836800+i, r.Intn(1000), 50+r.Intn(400),
			r.Intn(8), 1+r.Intn(4), sizes[u], u)
	}
	return b.String()
}
