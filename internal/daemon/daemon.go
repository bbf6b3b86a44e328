// Package daemon is the PAST storage daemon: the whole of what the
// pastd binary does, packaged as a callable Run so other executables
// can host it. cmd/pastd is a one-line wrapper; cmd/past-cluster and
// the internal/cluster tests re-exec *themselves* with a sentinel
// environment variable and dispatch into Run, which is how the
// orchestrator boots a fleet of real daemon processes without needing
// a separately built binary on disk.
//
// Start the first node of a network:
//
//	pastd -addr 127.0.0.1:7001 -capacity 64MB
//
// Join additional nodes to it:
//
//	pastd -addr 127.0.0.1:7002 -capacity 64MB -join 127.0.0.1:7001
//
// Give it a directory to keep a log-structured store there, recovered
// on restart (without -data the store is in memory):
//
//	pastd -addr 127.0.0.1:7003 -capacity 64MB -join 127.0.0.1:7001 -data /var/lib/past
//
// The node then accepts overlay traffic from peers and client requests
// from pastctl. The proximity metric is an emulated 2-D coordinate
// (-x/-y); a deployment would substitute network measurements.
//
// With -debug-addr the node additionally serves a plaintext debug
// endpoint: Prometheus-format metrics at /metrics, a readiness probe
// at /healthz (503 until the store has recovered and the overlay has
// joined, 200 after), and the standard net/http/pprof profiling
// handlers under /debug/pprof/.
package daemon

import (
	"crypto/rand"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	mrand "math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"past/internal/admit"
	"past/internal/cachengine"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

// Fixed daemon settings. Each was a flag that no deployment set to
// anything but this value. The log store's sync period, segment size,
// checkpoint interval and compaction ratio are the defaults of
// logstore.Options; logstore.OpenFlash derives the flash tier's segment
// size from its capacity.
const (
	joinRetries  = 20                     // join attempts after the first while the -join node is not up yet
	joinBackoff  = 100 * time.Millisecond // first wait between join attempts; doubles, capped at 2s
	hopTimeout   = 2 * time.Second        // per-hop routing RPC bound before trying an alternate
	traceKeep    = 64                     // sampled route traces /traces keeps
	admitBurst   = 8                      // admission token-bucket burst
	admitDepth   = 16                     // admission queue depth before shedding
	compactEvery = time.Minute            // log store background compaction scan period
)

// Run executes the daemon with the given command-line arguments
// (excluding the program name) and returns the process exit code. It
// blocks until the node leaves (SIGINT/SIGTERM) or setup fails.
func Run(args []string) int {
	fs := flag.NewFlagSet("pastd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7001", "listen address (host:port; must be reachable by peers)")
		capacity  = fs.String("capacity", "64MB", "advertised storage capacity (e.g. 512KB, 64MB, 2GB)")
		dataDir   = fs.String("data", "", "data directory for the log-structured store (empty: in-memory)")
		join      = fs.String("join", "", "address of an existing node to join via (empty: bootstrap a new network)")
		x         = fs.Float64("x", math.NaN(), "proximity-plane x coordinate (default random)")
		y         = fs.Float64("y", math.NaN(), "proximity-plane y coordinate (default random)")
		k         = fs.Int("k", 5, "replication factor")
		keepalive = fs.Duration("keepalive", 5*time.Second, "leaf-set keep-alive period")
		maintain  = fs.Duration("maintain", 0, "periodic replica-maintenance (anti-entropy) period (0: leaf-set-change-triggered only)")
		seed      = fs.Int64("seed", 0, "node id seed (0: cryptographically random)")

		syncPolicy = fs.String("sync", "always", "log store durability: always (group commit), interval, or never")

		partial   = fs.Bool("partial-insert", false, "accept inserts that stored at least one but fewer than k replicas; maintenance repairs the shortfall")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz, /traces, and /debug/pprof/ on this address (empty: off)")

		traceEvery = fs.Int("trace-every", 0, "route tracing: sample every Nth client operation into the trace ring (0: off; explicit pastctl trace requests always record)")

		admitRate = fs.Float64("admit-rate", 0, "admission control: sustained request rate in req/s; excess load is shed with an overload error (0: off)")

		cacheRAM   = fs.String("cache-ram", "0", "cache engine: RAM-tier cap (e.g. 16MB); 0 lets the cache use all free store space, as the paper does")
		cacheFlash = fs.String("cache-flash", "0", "cache engine: flash-tier capacity (e.g. 256MB); spills RAM evictions into segments under <data>/flashcache (0: off; needs -data)")

		ecMode   = fs.String("ec", "", "erasure-coded storage mode: m,n (e.g. 4,2) RS-codes inserts into m data + n parity fragments spread over the leaf set, k-replicating only the fragment map (empty: plain k-way replication)")
		ecBudget = fs.String("ec-repair-budget", "0", "erasure coding: per-maintenance-pass byte cap on lazy fragment repair (e.g. 256KB); 0: uncapped; needs -ec")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	capBytes, err := parseSize(*capacity)
	if err != nil {
		log.Printf("pastd: %v", err)
		return 1
	}
	ecBudgetBytes, err := parseSize(*ecBudget)
	if err != nil {
		log.Printf("pastd: -ec-repair-budget: %v", err)
		return 1
	}
	// A flag whose mechanism is off would be ignored without a word.
	if ecBudgetBytes > 0 && *ecMode == "" {
		log.Printf("pastd: -ec-repair-budget requires -ec")
		return 1
	}

	var nid id.Node
	if *seed != 0 {
		r := mrand.New(mrand.NewSource(*seed))
		r.Read(nid[:])
	} else if _, err := rand.Read(nid[:]); err != nil {
		log.Printf("pastd: node id: %v", err)
		return 1
	}

	pos := topology.Point{X: *x, Y: *y}
	if math.IsNaN(pos.X) || math.IsNaN(pos.Y) {
		r := mrand.New(mrand.NewSource(time.Now().UnixNano()))
		pos = topology.DefaultPlane.RandomPoint(r)
	}

	wire.RegisterWire()
	past.RegisterWire()

	tr, err := transport.New(nid, *addr, pos)
	if err != nil {
		log.Printf("pastd: %v", err)
		return 1
	}
	cfg := past.DefaultConfig()
	cfg.K = *k
	cfg.Pastry.HopTimeout = hopTimeout
	cfg.PartialInsert = *partial
	if *ecMode != "" {
		p, err := ec.ParseParams(*ecMode)
		if err != nil {
			log.Printf("pastd: -ec: %v", err)
			return 1
		}
		cfg.ECMode = &p
		cfg.ECRepairBudget = ecBudgetBytes
	}
	var tracer *obs.Tracer
	if *traceEvery > 0 {
		tracer = obs.NewTracer(*traceEvery, traceKeep)
		cfg.Tracer = tracer
	}
	if *admitRate > 0 {
		cfg.Admit = &admit.Config{Rate: *admitRate, Burst: admitBurst, Depth: admitDepth}
	}
	cacheRAMBytes, err := parseSize(*cacheRAM)
	if err != nil {
		log.Printf("pastd: -cache-ram: %v", err)
		return 1
	}
	cacheFlashBytes, err := parseSize(*cacheFlash)
	if err != nil {
		log.Printf("pastd: -cache-flash: %v", err)
		return 1
	}
	cfg.CacheEngine = &cachengine.Config{RAMBytes: cacheRAMBytes}
	if cacheFlashBytes > 0 {
		if *dataDir == "" {
			log.Printf("pastd: -cache-flash requires -data")
			return 1
		}
		cfg.CacheEngine.Flash = &cachengine.FlashConfig{
			Dir:      filepath.Join(*dataDir, "flashcache"),
			Capacity: cacheFlashBytes,
		}
	}

	// -data picks the backend: a log-structured store in that directory,
	// or an in-memory one that nothing survives.
	var backend store.Backend
	if *dataDir == "" {
		backend = store.New(capBytes)
		log.Printf("pastd: in-memory storage (no -data; nothing survives exit)")
	} else {
		policy, err := logstore.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			log.Printf("pastd: %v", err)
			return 1
		}
		ls, err := logstore.Open(*dataDir, logstore.Options{
			Capacity:     capBytes,
			Sync:         policy,
			CompactEvery: compactEvery,
		})
		if err != nil {
			log.Printf("pastd: %v", err)
			return 1
		}
		st := ls.Stats()
		log.Printf("pastd: log-structured storage at %s (%d replicas, %d WAL records replayed in %s, %d torn tails truncated, sync=%s)",
			*dataDir, ls.Len(), st.RecoveredRecords.Load(),
			time.Duration(st.RecoveryNanos.Load()), st.TornTruncations.Load(), policy)
		backend = ls
	}
	node, err := past.NewWithStoreEngine(nid, tr, cfg, backend, int64(nid[0])<<8|int64(nid[1]))
	if err != nil {
		log.Printf("pastd: %v", err)
		return 1
	}
	if fc := node.Cache().Config().Flash; fc != nil {
		log.Printf("pastd: cache engine: flash tier %d bytes at %s", fc.Capacity, fc.Dir)
	}
	tr.Serve(node)

	// The readiness flag gates /healthz: the store has recovered by the
	// time the backend is open (recovery is synchronous in Open), so
	// readiness flips when the overlay join completes. The orchestrator
	// polls /healthz to order joins and to detect restarts.
	var ready atomic.Bool
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Printf("pastd: debug listener: %v", err)
			return 1
		}
		go func() {
			if err := http.Serve(ln, NewDebugMux(node, tracer, &ready)); err != nil {
				log.Printf("pastd: debug server: %v", err)
			}
		}()
		log.Printf("pastd: debug endpoint on http://%s/ (metrics, healthz, traces, pprof)", ln.Addr())
	}

	if *join == "" {
		node.Overlay().Bootstrap()
		log.Printf("pastd: bootstrapped network; node %s listening on %s (capacity %d bytes)",
			nid.Short(), tr.Addr(), capBytes)
	} else {
		if err := joinWithRetry(tr, node, *join, joinRetries, joinBackoff); err != nil {
			log.Printf("pastd: %v", err)
			return 1
		}
		log.Printf("pastd: node %s joined via %s; listening on %s", nid.Short(), *join, tr.Addr())
	}
	ready.Store(true)

	ticker := time.NewTicker(*keepalive)
	defer ticker.Stop()
	var maintainC <-chan time.Time
	if *maintain > 0 {
		mt := time.NewTicker(*maintain)
		defer mt.Stop()
		maintainC = mt.C
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			if dead := node.Overlay().CheckLeafSet(); len(dead) > 0 {
				for _, d := range dead {
					log.Printf("pastd: leaf-set member %s presumed failed", d.Short())
				}
			}
		case <-maintainC:
			// Anti-entropy: leaf-set-change-triggered maintenance can be
			// starved when the change's RPCs were lost; a periodic pass
			// restores the replica invariant. Maintain coalesces
			// overlapping invocations, so a slow pass cannot pile up.
			go node.Maintain()
		case <-sig:
			ready.Store(false)
			log.Printf("pastd: leaving gracefully")
			lr := node.Leave()
			log.Printf("pastd: offloaded %d replicas (%d failed, %d owners notified)",
				lr.Offloaded, lr.Failed, lr.OwnersNotified)
			if err := node.Cache().Close(); err != nil {
				log.Printf("pastd: cache close: %v", err)
			}
			if c, ok := backend.(io.Closer); ok {
				if err := c.Close(); err != nil {
					log.Printf("pastd: store close: %v", err)
				}
			}
			if err := tr.Close(); err != nil {
				log.Printf("pastd: close: %v", err)
			}
			return 0
		}
	}
}

// joinWithRetry bootstraps the transport directory and joins the
// overlay via the node at joinAddr, retrying with capped exponential
// backoff while the bootstrap node is not up yet. retries is the
// number of attempts *after* the first; the error after the budget is
// spent names the address and the attempt count.
func joinWithRetry(tr *transport.TCP, node *past.Node, joinAddr string, retries int, backoff time.Duration) error {
	const backoffCap = 2 * time.Second
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > backoffCap {
				backoff = backoffCap
			}
		}
		bootID, err := tr.Bootstrap(joinAddr)
		if err != nil {
			lastErr = err
			log.Printf("pastd: join attempt %d/%d: %v", attempt+1, retries+1, err)
			continue
		}
		if err := node.Overlay().Join(bootID); err != nil {
			lastErr = err
			log.Printf("pastd: join attempt %d/%d: overlay join: %v", attempt+1, retries+1, err)
			continue
		}
		return nil
	}
	return fmt.Errorf("join %s: giving up after %d attempt(s): %v", joinAddr, retries+1, lastErr)
}

// NewDebugMux builds the debug endpoint: live node metrics in the
// Prometheus text format at /metrics, a readiness probe at /healthz,
// the sampled route-trace ring at /traces, the standard pprof handlers
// under /debug/pprof/, and an index at / — unknown paths get a real
// 404, not a 200 echo of the index. ready may be nil, in which case
// /healthz reports the overlay join state alone; tracer may be nil
// (sampling off), in which case /traces reports that.
func NewDebugMux(node *past.Node, tracer *obs.Tracer, ready *atomic.Bool) *http.ServeMux {
	mux := http.NewServeMux()
	labels := map[string]string{"node": node.ID().Short()}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteProm(w, node.StatsSnapshot(), labels); err != nil {
			log.Printf("pastd: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if (ready == nil || ready.Load()) && node.Overlay().Joined() {
			fmt.Fprintf(w, "ok %s\n", node.ID().Short())
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if tracer == nil {
			fmt.Fprintf(w, "trace sampling off (start with -trace-every N)\n")
			return
		}
		traces := tracer.Traces()
		fmt.Fprintf(w, "node %s: %d sampled of %d operations, keeping %d\n",
			node.ID().Short(), tracer.Sampled(), tracer.Started(), len(traces))
		for _, tr := range traces {
			fmt.Fprintf(w, "%s\n", tr.Detailed())
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "pastd %s\n/metrics\n/healthz\n/traces\n/debug/pprof/\n", node.ID().Short())
	})
	return mux
}

// NodeIDFromSeed reproduces the daemon's -seed to nodeId derivation, so
// an orchestrator that assigns seeds knows each process's identity
// without a round trip.
func NodeIDFromSeed(seed int64) id.Node {
	var nid id.Node
	r := mrand.New(mrand.NewSource(seed))
	r.Read(nid[:])
	return nid
}

// NewClient opens the transport a client of running daemons speaks
// through: wire types registered, a random client identity, an
// ephemeral loopback port. pastctl, past-cluster (and its top
// dashboard) and past-load's live mode reach the daemons' client RPCs
// through it.
func NewClient() (*transport.TCP, error) {
	wire.RegisterWire()
	past.RegisterWire()
	var cid id.Node
	if _, err := rand.Read(cid[:]); err != nil {
		return nil, err
	}
	return transport.New(cid, "127.0.0.1:0", topology.Point{})
}

// parseSize parses sizes like "512", "64KB", "2MB", "1GB". A size that
// does not fit in an int64 is an error, not a wrapped value.
func parseSize(s string) (int64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}
