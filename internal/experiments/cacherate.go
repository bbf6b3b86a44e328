package experiments

import (
	"fmt"
	"strings"
	"time"

	"past/internal/cachengine"
	"past/internal/loadgen"
)

// The cache-rate sweep runs every offered rate three times — with the
// legacy single-structure cache (unbounded RAM grant), with the
// engine's RAM tier capped, and with the same capped RAM tier plus a
// flash tier — so the curves show what each tier buys when the cached
// working set no longer fits in memory. Its base run's Cache is the
// engine+flash configuration. Every mode runs the unbounded queue: the
// sweep measures the tiers, not admission control.
const (
	ModeLegacy = "legacy"    // single structure, RAM grant unbounded
	ModeRAM    = "engine"    // engine, RAM tier capped
	ModeFlash  = "eng+flash" // capped RAM tier + flash tier
)

var (
	// CacheRates are the cache-rate sweep's offered rates, as
	// fractions of capacity.
	CacheRates = []float64{0.25, 0.5, 1}
	// CacheModes are the cache-rate sweep's modes.
	CacheModes = []Mode{
		{ModeLegacy, func(sc *loadgen.SimConfig) {
			sc.Cache, sc.Shed = &cachengine.Config{}, false
		}},
		{ModeRAM, func(sc *loadgen.SimConfig) {
			ram := *sc.Cache
			ram.Flash = nil
			sc.Cache, sc.Shed = &ram, false
		}},
		{ModeFlash, func(sc *loadgen.SimConfig) { sc.Shed = false }},
	}
)

// RenderCacheRate formats the sweep as hit rate and goodput per
// (offered rate, mode) — the tier table the cache demo prints.
func RenderCacheRate(r *SweepResult) string {
	var b strings.Builder
	w := r.Base.Workload
	fmt.Fprintf(&b, "Cache-rate sweep: %d nodes x %.0f req/s, %d files <=%dB, zipf %.2f, RAM tier %dKB, flash %dKB\n",
		r.Base.Nodes, r.Base.NodeRate, w.Files, w.MaxPayload,
		w.Alpha, r.Base.Cache.RAMBytes>>10, r.Base.Cache.Flash.Capacity>>10)
	fmt.Fprintf(&b, "%8s %10s %7s %9s %9s %8s %8s %9s %10s\n",
		"offered", "mode", "hit%", "ram-hit", "flash-hit", "miss", "spill", "goodput", "p99")
	for _, p := range r.Points {
		c := p.Result.Cache
		fmt.Fprintf(&b, "%6.2fx %10s %6.1f%% %9d %9d %8d %8d %7.1f/s %10v\n",
			p.Mult, p.Mode, 100*p.HitRate(), c.RAMHits, c.FlashHits,
			c.Misses, c.FlashSpills, p.Goodput(),
			p.Result.P(99).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	return b.String()
}

// CheckCacheRate asserts the property the flash tier exists for: at
// every offered rate, the flash-enabled engine's hit rate is at least
// the capped-RAM engine's (same RAM capacity, flash adds a second
// chance), and strictly better somewhere in the sweep. On success it
// returns what the flash tier bought at the highest rate.
func CheckCacheRate(r *SweepResult) (string, error) {
	improved := false
	var ram, flash *Point
	for _, mult := range r.Mults {
		ram, flash = r.At(mult, ModeRAM), r.At(mult, ModeFlash)
		if ram == nil || flash == nil {
			return "", fmt.Errorf("cacherate: sweep missing points at %.2fx", mult)
		}
		if flash.HitRate() < ram.HitRate() {
			return "", fmt.Errorf("cacherate: at %.2fx flash hit rate %.3f below RAM-only %.3f",
				mult, flash.HitRate(), ram.HitRate())
		}
		if flash.HitRate() > ram.HitRate() {
			improved = true
		}
	}
	if !improved {
		return "", fmt.Errorf("cacherate: flash tier never improved the hit rate")
	}
	return fmt.Sprintf("at %.2fx the flash tier lifts hit rate %.1f%% -> %.1f%% at equal RAM (%dKB)",
		flash.Mult, 100*ram.HitRate(), 100*flash.HitRate(), r.Base.Cache.RAMBytes>>10), nil
}
