package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"past/internal/cachengine"
	"past/internal/loadgen"
)

// CacheRateConfig parameterizes the cache-engine experiment: an
// offered-rate sweep run three times per point — with the legacy
// single-structure cache (unbounded RAM grant), with the sharded
// engine's RAM tier capped at RAMBytes, and with the same capped RAM
// tier plus a flash tier — so the curves show what each tier buys when
// the cached working set no longer fits in memory.
type CacheRateConfig struct {
	// Nodes is the cluster size. Default 16.
	Nodes int
	// NodeRate is each node's service rate in requests/s. Default 50.
	NodeRate float64
	// Multipliers are the offered rates swept, as fractions of
	// aggregate capacity. Default {0.25, 0.5, 1}.
	Multipliers []float64
	// Requests is the request count per point. Default 2000.
	Requests int
	// Files is the unique-file population; with MaxPayload it shapes
	// the working set. Default 256.
	Files int
	// Alpha is the Zipf popularity skew. Default 0.9.
	Alpha float64
	// MaxPayload clamps file sizes. Default 4096.
	MaxPayload int64
	// RAMBytes caps each node's RAM tier in the engine runs. Sized
	// below the hot working set, it is what forces the flash tier to
	// matter. Default 64 KiB.
	RAMBytes int64
	// FlashBytes is each node's flash-tier capacity. Default 1 MiB.
	FlashBytes int64
	// Shards is the engine's RAM-tier shard count. Default 4.
	Shards int
	// FlashDir is the base directory for flash segments; each run gets
	// a fresh subtree and nodes get per-node subdirectories. Empty uses
	// a temp directory that is removed afterwards.
	FlashDir string

	Seed int64
}

func (c CacheRateConfig) withDefaults() CacheRateConfig {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.NodeRate <= 0 {
		c.NodeRate = 50
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{0.25, 0.5, 1}
	}
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Files <= 0 {
		c.Files = 256
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.9
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = 4096
	}
	if c.RAMBytes <= 0 {
		c.RAMBytes = 64 << 10
	}
	if c.FlashBytes <= 0 {
		c.FlashBytes = 1 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	return c
}

// Capacity returns the aggregate cluster capacity in requests/s.
func (c CacheRateConfig) Capacity() float64 {
	return float64(c.Nodes) * c.NodeRate
}

// Cache-engine modes swept per offered rate.
const (
	ModeLegacy = "legacy"    // single structure, RAM grant unbounded
	ModeRAM    = "engine"    // sharded engine, RAM tier capped
	ModeFlash  = "eng+flash" // capped RAM tier + flash tier
)

// CacheRatePoint is one (offered rate, engine mode) cell.
type CacheRatePoint struct {
	// Multiplier is the offered rate as a fraction of capacity.
	Multiplier float64
	// Offered is the offered rate in requests/s.
	Offered float64
	// Mode identifies the cache configuration (ModeLegacy/RAM/Flash).
	Mode string
	// Result is the full driver result; Result.Cache has the tier
	// counters this experiment is about.
	Result *loadgen.Result
}

// HitRate is the point's cluster-wide cache hit rate.
func (p CacheRatePoint) HitRate() float64 { return p.Result.Cache.HitRate() }

// CacheRateResult carries the sweep, mode-major within each rate.
type CacheRateResult struct {
	Config CacheRateConfig
	Points []CacheRatePoint
	// Fingerprint hashes the per-run fingerprints in sweep order.
	Fingerprint string
}

// At returns the point for a multiplier and mode, or nil.
func (r *CacheRateResult) At(mult float64, mode string) *CacheRatePoint {
	for i := range r.Points {
		if r.Points[i].Multiplier == mult && r.Points[i].Mode == mode {
			return &r.Points[i]
		}
	}
	return nil
}

// RunCacheRate sweeps offered rate against a virtual-time cluster,
// pairing every rate with the three cache configurations. Seeded and
// deterministic per configuration; note the three modes legitimately
// produce different request outcomes (cache hits change hop counts),
// so their run fingerprints differ from each other by design.
func RunCacheRate(cfg CacheRateConfig) (*CacheRateResult, error) {
	cfg = cfg.withDefaults()
	base := cfg.FlashDir
	if base == "" {
		dir, err := os.MkdirTemp("", "past-cacherate-*")
		if err != nil {
			return nil, fmt.Errorf("experiments: cacherate: %w", err)
		}
		defer os.RemoveAll(dir)
		base = dir
	}

	engineCfg := func(flash bool, runTag string) *cachengine.Config {
		ec := &cachengine.Config{Shards: cfg.Shards, RAMBytes: cfg.RAMBytes}
		if flash {
			ec.Flash = &cachengine.FlashConfig{
				Dir:      fmt.Sprintf("%s/%s", base, runTag),
				Capacity: cfg.FlashBytes,
			}
		}
		return ec
	}

	res := &CacheRateResult{Config: cfg}
	fp := sha256.New()
	for _, mult := range cfg.Multipliers {
		offered := mult * cfg.Capacity()
		for _, mode := range []string{ModeLegacy, ModeRAM, ModeFlash} {
			var cc *cachengine.Config
			switch mode {
			case ModeRAM:
				cc = engineCfg(false, "")
			case ModeFlash:
				cc = engineCfg(true, fmt.Sprintf("x%.2f", mult))
			}
			run, err := loadgen.RunSim(loadgen.SimConfig{
				Nodes:    cfg.Nodes,
				Seed:     cfg.Seed,
				Requests: cfg.Requests,
				Arrivals: loadgen.NewConstant(offered),
				Workload: loadgen.Workload{
					Files:      cfg.Files,
					Alpha:      cfg.Alpha,
					MaxPayload: cfg.MaxPayload,
				},
				NodeRate: cfg.NodeRate,
				Cache:    cc,
				Payloads: true,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: cacherate %.2gx %s: %w", mult, mode, err)
			}
			res.Points = append(res.Points, CacheRatePoint{
				Multiplier: mult,
				Offered:    offered,
				Mode:       mode,
				Result:     run,
			})
			fmt.Fprintf(fp, "%.6f/%s/%s\n", mult, mode, run.Fingerprint)
		}
	}
	res.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	return res, nil
}

// RenderCacheRate formats the sweep as hit rate and goodput per
// (offered rate, mode) — the tier table the cache demo prints.
func RenderCacheRate(r *CacheRateResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cache-rate sweep: %d nodes x %.0f req/s, %d files <=%dB, zipf %.2f, RAM tier %dKB, flash %dKB\n",
		r.Config.Nodes, r.Config.NodeRate, r.Config.Files, r.Config.MaxPayload,
		r.Config.Alpha, r.Config.RAMBytes>>10, r.Config.FlashBytes>>10)
	fmt.Fprintf(&b, "%8s %10s %7s %9s %9s %8s %8s %9s %10s\n",
		"offered", "mode", "hit%", "ram-hit", "flash-hit", "miss", "spill", "goodput", "p99")
	for _, p := range r.Points {
		c := p.Result.Cache
		fmt.Fprintf(&b, "%6.2fx %10s %6.1f%% %9d %9d %8d %8d %7.1f/s %10v\n",
			p.Multiplier, p.Mode, 100*p.HitRate(), c.RAMHits, c.FlashHits,
			c.Misses, c.FlashSpills, p.Result.Goodput(),
			p.Result.P(99).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	return b.String()
}

// CheckCacheRate asserts the property the flash tier exists for: at
// every offered rate, the flash-enabled engine's hit rate is at least
// the capped-RAM engine's (same RAM capacity, flash adds a second
// chance), and strictly better somewhere in the sweep.
func CheckCacheRate(r *CacheRateResult) error {
	improved := false
	for _, mult := range r.Config.Multipliers {
		ram, flash := r.At(mult, ModeRAM), r.At(mult, ModeFlash)
		if ram == nil || flash == nil {
			return fmt.Errorf("cacherate: sweep missing points at %.2fx", mult)
		}
		if flash.HitRate() < ram.HitRate() {
			return fmt.Errorf("cacherate: at %.2fx flash hit rate %.3f below RAM-only %.3f",
				mult, flash.HitRate(), ram.HitRate())
		}
		if flash.HitRate() > ram.HitRate() {
			improved = true
		}
	}
	if !improved {
		return fmt.Errorf("cacherate: flash tier never improved the hit rate")
	}
	return nil
}
