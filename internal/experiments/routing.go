package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"past/internal/cache"
	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/trace"
)

// RoutingResult measures the Pastry properties section 2.1 quotes:
// routes of at most ceil(log_2^b N) overlay hops under normal operation,
// and the locality property that lookups tend to reach the replica
// closest to the client (the Pastry paper reports the nearest of 5
// copies found in 76% of lookups, one of the two nearest in 92%).
type RoutingResult struct {
	Nodes, Lookups int
	LogBound       int
	MeanHops       float64
	MaxHops        int
	// HopHistogram[h] counts lookups that took h hops.
	HopHistogram []int
	// NearestPct is the fraction of lookups served by the proximally
	// nearest of the k replica holders; Nearest2Pct by one of the two
	// nearest.
	NearestPct, Nearest2Pct float64
}

// RunRouting builds a cluster, inserts files with caching disabled, and
// measures hop counts and which replica serves each lookup.
func RunRouting(sc Scale, seed int64) (*RoutingResult, error) {
	// Plenty of targets, ample capacity.
	w := trace.InsertOnly(max(sc.Nodes*40, 200), trace.NLANRSizes(), seed)
	// Capacity ample: routing, not storage, is under test.
	perNode := 4 * w.TotalBytes * 5 / int64(sc.Nodes)
	cluster, err := past.NewCluster(past.ClusterSpec{
		N:        sc.Nodes,
		Cfg:      standardConfig(cache.None),
		Capacity: func(int, *rand.Rand) int64 { return perNode },
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed ^ 0x407))
	type placed struct {
		fid     id.File
		holders []*past.Node
	}
	var inserted []placed
	err = insertTrace(cluster, w, rng, func(_ trace.Event, res *past.InsertResult) error {
		if !res.OK {
			return nil
		}
		var holders []*past.Node
		for _, nid := range cluster.GlobalClosest(res.FileID.Key(), 5) {
			if cluster.ByID[nid].HasReplica(res.FileID) {
				holders = append(holders, cluster.ByID[nid])
			}
		}
		inserted = append(inserted, placed{fid: res.FileID, holders: holders})
		return nil
	})
	if err != nil {
		return nil, err
	}

	rr := &RoutingResult{
		Nodes:    sc.Nodes,
		LogBound: int(math.Ceil(math.Log(float64(sc.Nodes)) / math.Log(16))),
	}
	hopHist := make([]int, 64)
	var hops, nearest, nearest2 int
	// A sampled trace context makes every route hop-recorded.
	traced := obs.ContextWithTrace(context.Background(), obs.TraceContext{Sampled: true})
	lookups := 0
	for trial := 0; trial < 4*len(inserted); trial++ {
		p := inserted[rng.Intn(len(inserted))]
		if len(p.holders) == 0 {
			continue
		}
		client := cluster.Nodes[rng.Intn(len(cluster.Nodes))]
		// Identify which holder is proximally nearest to the client.
		type hd struct {
			n *past.Node
			d float64
		}
		var hds []hd
		for _, h := range p.holders {
			d, _ := cluster.Net.Proximity(client.ID(), h.ID())
			hds = append(hds, hd{n: h, d: d})
		}
		slices.SortStableFunc(hds, func(a, b hd) int { return cmp.Compare(a.d, b.d) })
		// Which node actually served it? Trace the route: with caching
		// off, the serving node is the first holder on the path (or a
		// pointer chase, which we skip by requiring a direct holder) —
		// the To of the route's last hop record, the consumer's own.
		reply, hopsTaken, hopTrace, err := client.Overlay().RouteContext(traced, p.fid.Key(), &past.LookupMsg{File: p.fid})
		if err != nil {
			return nil, err
		}
		lr, ok := reply.(*past.LookupReply)
		if !ok || !lr.Found {
			continue
		}
		lookups++
		hops += hopsTaken
		if hopsTaken < len(hopHist) {
			hopHist[hopsTaken]++
		}
		if rr.MaxHops < hopsTaken {
			rr.MaxHops = hopsTaken
		}
		server := hopTrace[len(hopTrace)-1].To
		if len(hds) > 0 && server == hds[0].n.ID() {
			nearest++
			nearest2++
		} else if len(hds) > 1 && server == hds[1].n.ID() {
			nearest2++
		}
	}
	rr.Lookups = lookups
	if lookups > 0 {
		rr.MeanHops = float64(hops) / float64(lookups)
		rr.NearestPct = 100 * float64(nearest) / float64(lookups)
		rr.Nearest2Pct = 100 * float64(nearest2) / float64(lookups)
	}
	// Trim histogram.
	last := 0
	for i, c := range hopHist {
		if c > 0 {
			last = i
		}
	}
	rr.HopHistogram = hopHist[:last+1]
	return rr, nil
}

// RenderRouting formats the routing-property measurements.
func RenderRouting(r *RoutingResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Routing properties (section 2.1)")
	fmt.Fprintf(&b, "nodes=%d lookups=%d ceil(log16 N)=%d\n", r.Nodes, r.Lookups, r.LogBound)
	fmt.Fprintf(&b, "mean hops=%.2f max hops=%d\n", r.MeanHops, r.MaxHops)
	for h, c := range r.HopHistogram {
		fmt.Fprintf(&b, "  %d hops: %6d (%.1f%%)\n", h, c, 100*float64(c)/float64(max(1, r.Lookups)))
	}
	fmt.Fprintf(&b, "served by proximally nearest replica: %.1f%% (paper: 76%%)\n", r.NearestPct)
	fmt.Fprintf(&b, "served by one of two nearest: %.1f%% (paper: 92%%)\n", r.Nearest2Pct)
	return b.String()
}
