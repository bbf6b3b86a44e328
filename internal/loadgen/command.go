package loadgen

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"past/internal/cachengine"
	"past/internal/ec"
)

// Command is one past-load command line: the load run it describes and
// the mode that runs it.
type Command struct {
	// Mode is "sim", "sweep", "check", "cache-sweep", "cache-check" or
	// "live", after the flag that selects it (-node selects live).
	Mode string
	// Sim is the run: past-load's flags bind straight into it, starting
	// from DefaultSimConfig. A sweep varies its rate and its mode's
	// settings around it.
	Sim SimConfig
	// Verify reruns a virtual-time run and requires the same
	// fingerprint.
	Verify bool
	// Addr and Conc are a live run's target and in-flight cap.
	Addr string
	Conc int
}

// notRead lists, per mode, the flags that mode has no use for. Setting
// one is refused, not ignored: a sweep sets the offered rate and the
// shedding mode itself, a live node brings its own cluster, and only
// the cache sweep configures the cache engine.
var notRead = map[string]string{
	"sim":         "node conc cache-ram cache-flash",
	"sweep":       "node conc rate no-shed cache-ram cache-flash",
	"check":       "node conc rate no-shed cache-ram cache-flash",
	"cache-sweep": "node conc rate no-shed depth sweep check",
	"cache-check": "node conc rate no-shed depth sweep check",
	"live":        "ec nodes node-rate burst depth no-shed hop-latency verify cache-ram cache-flash",
}

// ParseCommand binds past-load's flags (args without the program name)
// and picks the mode they select. Usage and flag errors go to out. A
// flag the selected mode would not read is an error naming it.
func ParseCommand(args []string, out io.Writer) (Command, error) {
	c := Command{Sim: DefaultSimConfig(), Conc: 16}
	sc, w := &c.Sim, &c.Sim.Workload
	cache := cachengine.Config{RAMBytes: 32 << 10, Flash: &cachengine.FlashConfig{Capacity: 1 << 20}}

	fs := flag.NewFlagSet("past-load", flag.ContinueOnError)
	fs.SetOutput(out)
	sim := fs.Bool("sim", false, "drive the virtual-time emulated cluster instead of a live node")
	fs.StringVar(&c.Addr, "node", "", "address of a live PAST node to drive over TCP")

	fs.Float64Var(&sc.Rate, "rate", sc.Rate, "offered request rate in req/s")
	fs.StringVar(&sc.Arrivals, "arrivals", sc.Arrivals, "arrival process: constant, poisson, or square")
	fs.IntVar(&sc.Requests, "requests", sc.Requests, "total requests to issue")
	fs.IntVar(&w.Files, "files", w.Files, "file population size (Zipf-popular)")
	fs.Float64Var(&w.Alpha, "alpha", w.Alpha, "Zipf exponent for file popularity")
	fs.Float64Var(&w.LookupFrac, "lookups", w.LookupFrac, "fraction of requests that are lookups once the population exists")
	fs.Int64Var(&w.MaxPayload, "max-size", w.MaxPayload, "largest file payload in bytes")
	fs.DurationVar(&sc.SLO, "slo", sc.SLO, "latency SLO classifying a completion as good")
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "schedule and cluster seed")
	fs.IntVar(&c.Conc, "conc", c.Conc, "TCP mode: in-flight request cap (queueing counts against latency); 0 = unbounded")

	ecMode := fs.String("ec", "", "sim: erasure-coded storage mode \"m,n\" (e.g. 4,2) — inserts are coded into fragments, lookups reconstruct from any m")

	fs.IntVar(&sc.Nodes, "nodes", sc.Nodes, "sim: cluster size")
	fs.Float64Var(&sc.NodeRate, "node-rate", sc.NodeRate, "sim: per-node service rate in req/s (capacity = nodes * node-rate)")
	fs.IntVar(&sc.Burst, "burst", sc.Burst, "sim: admission token-bucket burst")
	fs.IntVar(&sc.Depth, "depth", sc.Depth, "sim: admission queue depth")
	noShed := fs.Bool("no-shed", !sc.Shed, "sim: disable admission control (unbounded queue)")
	fs.DurationVar(&sc.HopLatency, "hop-latency", sc.HopLatency, "sim: virtual per-hop service time")

	sweep := fs.Bool("sweep", false, "sim: run the offered-rate sweep (shedding off vs on) instead of a single run")
	check := fs.Bool("check", false, "sim: run the sweep and exit non-zero unless shedding strictly improves goodput and p99 at 2x capacity")
	fs.BoolVar(&c.Verify, "verify", false, "sim: run twice and require bit-identical fingerprints")

	cacheSweep := fs.Bool("cache-sweep", false, "sim: sweep offered rate across cache configurations (legacy / RAM-capped engine / engine+flash) and print per-tier hit rates")
	cacheCheck := fs.Bool("cache-check", false, "sim: run the cache sweep and exit non-zero unless the flash tier beats the RAM-capped engine's hit rate")
	fs.Int64Var(&cache.RAMBytes, "cache-ram", cache.RAMBytes, "cache sweep: per-node RAM-tier cap in bytes (sized below the working set so the flash tier matters)")
	fs.Int64Var(&cache.Flash.Capacity, "cache-flash", cache.Flash.Capacity, "cache sweep: per-node flash-tier capacity in bytes")

	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case *cacheCheck:
		c.Mode = "cache-check"
	case *cacheSweep:
		c.Mode = "cache-sweep"
	case *check:
		c.Mode = "check"
	case *sweep:
		c.Mode = "sweep"
	case *sim:
		c.Mode = "sim"
	case c.Addr != "":
		c.Mode = "live"
	default:
		fs.Usage()
		return c, errors.New("pick a target: -sim (emulated cluster) or -node addr (live node)")
	}

	unread := strings.Fields(notRead[c.Mode])
	if *noShed {
		unread = append(unread, "depth") // the queue is unbounded
	}
	var refused []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(unread, f.Name) {
			refused = append(refused, "-"+f.Name)
		}
	})
	if len(refused) > 0 {
		return c, fmt.Errorf("%s: not read by %s runs", strings.Join(refused, " "), c.Mode)
	}

	sc.Shed = !*noShed
	if *ecMode != "" {
		p, err := ec.ParseParams(*ecMode)
		if err != nil {
			return c, fmt.Errorf("-ec: %w", err)
		}
		sc.EC = &p
	}
	if c.Mode == "cache-sweep" || c.Mode == "cache-check" {
		sc.Cache = &cache
	}
	if _, err := newArrivals(sc.Arrivals, sc.Rate); err != nil {
		return c, err
	}
	return c, nil
}
