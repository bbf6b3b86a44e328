package fleetobs

import (
	"fmt"
	"net/http"

	"past/internal/obs"
)

// NewHandler serves the aggregator's HTTP plane over a scraper:
//
//	/metrics  combined Prometheus exposition — one series per live node
//	          (label node="<name>") plus the fleet aggregate (label
//	          node="fleet"), each metric family typed exactly once
//	/nodes    plain-text per-node scrape table
//	/healthz  200 while at least one target answers, 503 otherwise
//	/         index of the above; unknown paths are 404, not an echo
//	          of the index
//
// Collection is scrape-on-request: each /metrics or /nodes request
// triggers one synchronous fleet poll, so the aggregator adds no
// background load between scrapes.
func NewHandler(s *Scraper) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		sample := s.Poll()
		var series []obs.Labeled
		for i := range sample.Nodes {
			ns := &sample.Nodes[i]
			if !ns.Live() {
				continue
			}
			series = append(series, obs.Labeled{
				Labels: map[string]string{"node": ns.Target.Name},
				Snap:   ns.Snap,
			})
		}
		series = append(series, obs.Labeled{
			Labels: map[string]string{"node": "fleet"},
			Snap:   sample.Merged(),
		})
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePromAll(w, series)
	})
	mux.HandleFunc("/nodes", func(w http.ResponseWriter, r *http.Request) {
		sample := s.Poll()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "poll %d: %d/%d live\n", sample.Seq, sample.Live, len(sample.Nodes))
		for i := range sample.Nodes {
			ns := &sample.Nodes[i]
			if !ns.Live() {
				fmt.Fprintf(w, "%-8s %-21s DOWN %s\n", ns.Target.Name, ns.Target.Addr, ns.Err)
				continue
			}
			restarted := ""
			if ns.Restarted {
				restarted = " RESTARTED"
			}
			fmt.Fprintf(w, "%-8s %-21s id=%s lookups=%d inserts=%d store=%dB cache=%d%s\n",
				ns.Target.Name, ns.Target.Addr, ns.Node.Short(),
				ns.Snap.Get(obs.CtrLookups), ns.Snap.Get(obs.CtrInserts),
				ns.Snap.Get(obs.CtrStoreBytes), ns.Snap.Get(obs.CtrCacheEntries), restarted)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		last := s.Last()
		if last == nil {
			last = s.Poll()
		}
		if last.Live == 0 {
			http.Error(w, "no live targets", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok: %d/%d live\n", last.Live, len(last.Nodes))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "past fleet aggregator: %d targets\n/metrics\n/nodes\n/healthz\n", len(s.Targets()))
	})
	return mux
}
