package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"past/internal/cache"
	"past/internal/id"
	"past/internal/metrics"
	"past/internal/past"
	"past/internal/topology"
	"past/internal/trace"
)

// CachingConfig parameterizes the section 5.2 caching experiment
// (Figure 8): the NLANR-like trace replayed with inserts and lookups
// issued from client-mapped nodes, measuring global cache hit rate and
// mean routing hops as utilization rises. The cluster is the standard
// d1 one; the trace is trace.DefaultWebSpec's, 8 sites and 2.15
// requests per URL.
type CachingConfig struct {
	Nodes int
	// Clients defaults to the paper's 775.
	Clients int
	Policy  cache.Policy
	Seed    int64
}

// webSpec is the run's trace. A Zipf(0.8) request stream at the paper's
// 2.15 requests/URL ratio references only ~61% of the URL population;
// the unseen tail never gets inserted. The population is inflated so
// the *inserted* bytes reach the storage overshoot, pushing the run to
// the high utilizations Figure 8's right-hand side covers.
func (c CachingConfig) webSpec() trace.WebSpec {
	spec := trace.DefaultWebSpec(filesFor(D1, c.Nodes, 5, 1, webMeanSize, DefaultOvershoot)*100/61, c.Seed)
	if c.Clients > 0 {
		spec.Clients = c.Clients
	}
	return spec
}

// CachingResult carries Figure 8's data for one replacement policy.
type CachingResult struct {
	Config    CachingConfig
	Collector *metrics.Collector
	// Series buckets lookups by the utilization at request time.
	Series metrics.LookupSeries
	// Global aggregates across the whole run.
	MeanHops, HitRate float64
	Lookups           int
	FinalUtil         float64
}

// RunCaching replays a web trace with the given cache policy.
func RunCaching(cfg CachingConfig) (*CachingResult, error) {
	spec := cfg.webSpec()
	cluster, col, err := table1Cluster(standardConfig(cfg.Policy), cfg.Nodes, D1, 1, cfg.Seed, spec.UniqueFiles/500+1)
	if err != nil {
		return nil, err
	}
	if err := ReplayWeb(cluster, trace.WebTrace(spec), col, cfg.Seed); err != nil {
		return nil, err
	}
	meanHops, hitRate, found := col.GlobalLookupStats()
	return &CachingResult{
		Config:    cfg,
		Collector: col,
		Series:    col.LookupsByUtil(50),
		MeanHops:  meanHops,
		HitRate:   hitRate,
		Lookups:   found,
		FinalUtil: col.Utilization(),
	}, nil
}

// ReplayWeb replays w over cluster the way section 5.2 does: the
// clients of each trace site issue their requests from PAST nodes close
// to each other, a file's first reference inserts it and later ones look
// it up. col, which must monitor the cluster, records every operation
// at the utilization it was issued at. seed places the sites.
func ReplayWeb(cluster *past.Cluster, w *trace.Workload, col *metrics.Collector, seed int64) error {
	clientNodes := mapClientsToNodes(cluster, w, seed)

	// fileIDs tracks the fileId each unique file ended up under (file
	// diversion may re-salt them).
	fileIDs := make(map[int32]id.File, w.Files)
	for _, ev := range w.Events {
		node := clientNodes[ev.Client]
		util := col.Utilization()
		switch ev.Op {
		case trace.OpInsert:
			res, err := node.Insert(insertSpec(ev))
			if err != nil {
				return fmt.Errorf("experiments: caching insert: %w", err)
			}
			col.RecordInsert(util, ev.Size, res.Attempts, res.OK, res.Diverted)
			if res.OK {
				fileIDs[ev.File] = res.FileID
			}
		case trace.OpLookup:
			f, ok := fileIDs[ev.File]
			if !ok {
				continue // the insert failed; the paper skips such URLs too
			}
			res, err := node.Lookup(f)
			if err != nil {
				return fmt.Errorf("experiments: caching lookup: %w", err)
			}
			col.RecordLookup(util, res.Hops, res.Found, res.FromCache)
		}
	}
	return nil
}

// mapClientsToNodes implements the paper's client mapping: requests from
// clients of the same trace site are issued from PAST nodes close to
// each other in the emulated network. Each site gets a random center;
// its clients are spread over the nodes nearest that center.
func mapClientsToNodes(cluster *past.Cluster, w *trace.Workload, seed int64) []*past.Node {
	r := rand.New(rand.NewSource(seed ^ 0x517e5))
	centers := make([]topology.Point, w.Sites)
	for i := range centers {
		centers[i] = topology.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
	}
	// Pool size per site: enough nodes that one site doesn't collapse
	// onto a single node, small enough to stay "close".
	poolSize := max(len(cluster.Nodes)/(2*w.Sites), 1)
	pools := make([][]*past.Node, w.Sites)
	for s := range pools {
		type nd struct {
			n *past.Node
			d float64
		}
		all := make([]nd, 0, len(cluster.Nodes))
		for _, n := range cluster.Nodes {
			p, _ := cluster.Net.Position(n.ID())
			all = append(all, nd{n: n, d: topology.Distance(p, centers[s])})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i := 0; i < poolSize; i++ {
			pools[s] = append(pools[s], all[i].n)
		}
	}
	clients := make([]*past.Node, w.Clients)
	perSiteIdx := make([]int, w.Sites)
	for c := 0; c < w.Clients; c++ {
		s := w.SiteOf[c]
		pool := pools[s]
		clients[c] = pool[perSiteIdx[s]%len(pool)]
		perSiteIdx[s]++
	}
	return clients
}
