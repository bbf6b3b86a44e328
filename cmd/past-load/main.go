// Command past-load is the open-loop workload driver. It generates a
// seeded request schedule (constant, Poisson, or square-wave arrivals
// over a Zipf-popularity file population) and reports goodput and
// coordinated-omission-free latency percentiles.
//
// Two targets:
//
//	past-load -sim -nodes 25 -rate 300              # virtual-time emulated cluster
//	past-load -node 127.0.0.1:7001 -rate 300        # a real pastd node over TCP
//
// The sim is deterministic: a fixed seed yields a bit-identical result
// fingerprint, so runs are comparable across machines and commits.
//
//	past-load -sim -sweep                 # offered-rate sweep, shedding off vs on
//	past-load -sim -check                 # exit 0 only if shedding wins at 2x capacity
//	past-load -sim -verify                # run twice, require identical fingerprints
//	past-load -sim -cache-sweep           # cache-tier sweep: legacy vs sharded engine vs engine+flash
//	past-load -sim -cache-check           # exit 0 only if the flash tier beats capped RAM alone
//	past-load -sim -ec 4,2                # erasure-coded mode: coded inserts, m-of-n reconstructing lookups
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"past/internal/daemon"
	"past/internal/ec"
	"past/internal/experiments"
	"past/internal/loadgen"
)

func main() {
	var (
		sim  = flag.Bool("sim", false, "drive the virtual-time emulated cluster instead of a live node")
		addr = flag.String("node", "", "address of a live PAST node to drive over TCP")

		rate     = flag.Float64("rate", 200, "offered request rate in req/s")
		arrivals = flag.String("arrivals", "constant", "arrival process: constant, poisson, or square")
		requests = flag.Int("requests", 2000, "total requests to issue")
		files    = flag.Int("files", 128, "file population size (Zipf-popular)")
		alpha    = flag.Float64("alpha", 0.8, "Zipf exponent for file popularity")
		lookups  = flag.Float64("lookups", 0.9, "fraction of requests that are lookups once the population exists")
		maxSize  = flag.Int64("max-size", 4096, "largest file payload in bytes")
		slo      = flag.Duration("slo", 500*time.Millisecond, "latency SLO classifying a completion as good")
		seed     = flag.Int64("seed", 1, "schedule and cluster seed")
		conc     = flag.Int("conc", 16, "TCP mode: in-flight request cap (queueing counts against latency); 0 = unbounded")

		ecMode = flag.String("ec", "", "sim: erasure-coded storage mode \"m,n\" (e.g. 4,2) — inserts are coded into fragments, lookups reconstruct from any m")

		nodes    = flag.Int("nodes", 25, "sim: cluster size")
		nodeRate = flag.Float64("node-rate", 100, "sim: per-node service rate in req/s (capacity = nodes * node-rate)")
		burst    = flag.Int("burst", 4, "sim: admission token-bucket burst")
		depth    = flag.Int("depth", 8, "sim: admission queue depth")
		noShed   = flag.Bool("no-shed", false, "sim: disable admission control (unbounded queue)")
		hopLat   = flag.Duration("hop-latency", time.Millisecond, "sim: virtual per-hop service time")

		sweep  = flag.Bool("sweep", false, "sim: run the offered-rate sweep (shedding off vs on) instead of a single run")
		check  = flag.Bool("check", false, "sim: run the sweep and exit non-zero unless shedding strictly improves goodput and p99 at 2x capacity")
		verify = flag.Bool("verify", false, "sim: run twice and require bit-identical fingerprints")

		cacheSweep = flag.Bool("cache-sweep", false, "sim: sweep offered rate across cache configurations (legacy / sharded engine / engine+flash) and print per-tier hit rates")
		cacheCheck = flag.Bool("cache-check", false, "sim: run the cache sweep and exit non-zero unless the flash tier beats the RAM-capped engine's hit rate")
		cacheRAM   = flag.Int64("cache-ram", 32<<10, "cache sweep: per-node RAM-tier cap in bytes (sized below the working set so the flash tier matters)")
		cacheFlash = flag.Int64("cache-flash", 1<<20, "cache sweep: per-node flash-tier capacity in bytes")
		cacheShard = flag.Int("cache-shards", 4, "cache sweep: engine RAM-tier shard count")
	)
	flag.Parse()

	w := loadgen.Workload{
		Files:      *files,
		Alpha:      *alpha,
		LookupFrac: *lookups,
		MaxPayload: *maxSize,
	}
	mkArrivals := func() loadgen.Arrivals {
		switch *arrivals {
		case "constant":
			return loadgen.NewConstant(*rate)
		case "poisson":
			return loadgen.NewPoisson(*rate)
		case "square":
			// High phase at the offered rate, low phase at a fifth, 1s period.
			return loadgen.NewSquareWave(*rate/5, *rate, time.Second, 0.5)
		default:
			log.Fatalf("past-load: unknown arrival process %q (want constant, poisson, or square)", *arrivals)
			return nil
		}
	}

	switch {
	case *cacheSweep || *cacheCheck:
		runCacheSweep(experiments.CacheRateConfig{
			Nodes:      *nodes,
			NodeRate:   *nodeRate,
			Requests:   *requests,
			Files:      *files,
			Alpha:      *alpha,
			MaxPayload: *maxSize,
			RAMBytes:   *cacheRAM,
			FlashBytes: *cacheFlash,
			Shards:     *cacheShard,
			Seed:       *seed,
		}, *cacheCheck)
	case *sweep || *check:
		runSweep(experiments.OverloadConfig{
			Nodes:      *nodes,
			NodeRate:   *nodeRate,
			Burst:      *burst,
			Depth:      *depth,
			Requests:   *requests,
			Workload:   w,
			HopLatency: *hopLat,
			SLO:        *slo,
			Seed:       *seed,
		}, *check)
	case *sim:
		sc := loadgen.SimConfig{
			Nodes:      *nodes,
			Seed:       *seed,
			Requests:   *requests,
			Arrivals:   mkArrivals(),
			Workload:   w,
			NodeRate:   *nodeRate,
			Burst:      *burst,
			Depth:      *depth,
			Shed:       !*noShed,
			HopLatency: *hopLat,
			SLO:        *slo,
		}
		if *ecMode != "" {
			p, err := ec.ParseParams(*ecMode)
			if err != nil {
				log.Fatalf("past-load: %v", err)
			}
			sc.EC = &p
		}
		res, err := loadgen.RunSim(sc)
		if err != nil {
			log.Fatalf("past-load: %v", err)
		}
		report(res, *slo)
		if *verify {
			sc.Arrivals = mkArrivals() // arrivals carry a cursor; rebuild
			again, err := loadgen.RunSim(sc)
			if err != nil {
				log.Fatalf("past-load: verify rerun: %v", err)
			}
			if again.Fingerprint != res.Fingerprint {
				fmt.Printf("VERIFY: FAIL — fingerprints differ\n  %s\n  %s\n", res.Fingerprint, again.Fingerprint)
				os.Exit(1)
			}
			fmt.Printf("VERIFY: ok — rerun reproduced fingerprint %s\n", res.Fingerprint)
		}
	case *addr != "":
		tr, err := daemon.NewClient()
		if err != nil {
			log.Fatalf("past-load: %v", err)
		}
		defer tr.Close()
		res, err := loadgen.Run(loadgen.Config{
			Arrivals:    mkArrivals(),
			Requests:    *requests,
			Seed:        *seed,
			Workload:    w,
			Concurrency: *conc,
			SLO:         *slo,
		}, loadgen.AddrClient{T: tr, Addr: *addr})
		if err != nil {
			log.Fatalf("past-load: %v", err)
		}
		report(res, *slo)
	default:
		fmt.Fprintln(os.Stderr, "past-load: pick a target: -sim (emulated cluster) or -node addr (live node)")
		flag.Usage()
		os.Exit(2)
	}
}

func report(res *loadgen.Result, slo time.Duration) {
	fmt.Println(res)
	fmt.Printf("goodput %.1f req/s (SLO %v)  p50 %v  p99 %v  p99.9 %v\n",
		res.Goodput(), slo,
		res.P(50).Round(time.Microsecond),
		res.P(99).Round(time.Microsecond),
		res.P(99.9).Round(time.Microsecond))
	if c := res.Cache; c.FragHits > 0 || c.Reconstructs > 0 {
		fmt.Printf("ec: %d reconstructions from %d fragment-level hits (%d corrupt copies dropped)\n",
			c.Reconstructs, c.FragHits, c.FragCRCDrops)
	}
	if res.Fingerprint != "" {
		fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	}
}

// runSweep executes the offered-rate sweep; under check it also
// asserts the headline overload-protection property and sets the exit
// status accordingly.
func runSweep(cfg experiments.OverloadConfig, check bool) {
	res, err := experiments.RunOverload(cfg)
	if err != nil {
		log.Fatalf("past-load: %v", err)
	}
	fmt.Print(experiments.RenderOverload(res))
	if !check {
		return
	}
	off, on := res.At(2, false), res.At(2, true)
	if off == nil || on == nil {
		fmt.Println("CHECK: FAIL — sweep is missing the 2x-capacity points")
		os.Exit(1)
	}
	switch {
	case on.Result.Shed == 0:
		fmt.Println("CHECK: FAIL — admission control shed nothing at 2x capacity")
		os.Exit(1)
	case on.Goodput() <= off.Goodput():
		fmt.Printf("CHECK: FAIL — goodput with shedding %.1f/s <= without %.1f/s\n",
			on.Goodput(), off.Goodput())
		os.Exit(1)
	case on.Result.P(99) >= off.Result.P(99):
		fmt.Printf("CHECK: FAIL — p99 with shedding %v >= without %v\n",
			on.Result.P(99), off.Result.P(99))
		os.Exit(1)
	}
	fmt.Printf("CHECK: ok — at 2x capacity shedding lifts goodput %.1f/s -> %.1f/s and cuts p99 %v -> %v\n",
		off.Goodput(), on.Goodput(),
		off.Result.P(99).Round(time.Millisecond), on.Result.P(99).Round(time.Millisecond))
}

// runCacheSweep executes the cache-configuration sweep; under check it
// also asserts the flash tier's hit-rate property and sets the exit
// status accordingly.
func runCacheSweep(cfg experiments.CacheRateConfig, check bool) {
	res, err := experiments.RunCacheRate(cfg)
	if err != nil {
		log.Fatalf("past-load: %v", err)
	}
	fmt.Print(experiments.RenderCacheRate(res))
	if !check {
		return
	}
	if err := experiments.CheckCacheRate(res); err != nil {
		fmt.Printf("CHECK: FAIL — %v\n", err)
		os.Exit(1)
	}
	last := cfg.Multipliers
	if len(last) == 0 {
		last = []float64{0.25, 0.5, 1}
	}
	mult := last[len(last)-1]
	ram, fl := res.At(mult, experiments.ModeRAM), res.At(mult, experiments.ModeFlash)
	fmt.Printf("CHECK: ok — at %.2fx the flash tier lifts hit rate %.1f%% -> %.1f%% at equal RAM (%dKB)\n",
		mult, 100*ram.HitRate(), 100*fl.HitRate(), cfg.RAMBytes>>10)
}
