package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"past/internal/loadgen"
)

// OverloadConfig parameterizes the overload experiment: an offered-rate
// sweep against a fixed-capacity cluster, run twice per point — once
// with an unbounded per-node queue and once with bounded-queue
// admission control — so the curves show what shedding buys (and
// costs) on either side of saturation.
type OverloadConfig struct {
	// Nodes is the cluster size. Default 10.
	Nodes int
	// NodeRate is each node's sustained service rate in requests/s;
	// aggregate capacity is Nodes * NodeRate. Default 20.
	NodeRate float64
	// Burst and Depth shape the admission controller on the
	// shedding-on runs. Defaults 4 and 8.
	Burst, Depth int
	// Multipliers are the offered rates swept, as fractions of
	// aggregate capacity. Default {0.5, 1, 1.5, 2}.
	Multipliers []float64
	// Requests is the request count per point. Default 1200.
	Requests int
	// Workload is the request mix (defaulted by loadgen).
	Workload loadgen.Workload
	// HopLatency is the virtual per-hop service time. Default 1ms.
	HopLatency time.Duration
	// SLO classifies a completion as good. Default 500ms.
	SLO time.Duration

	Seed int64
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Nodes <= 0 {
		c.Nodes = 10
	}
	if c.NodeRate <= 0 {
		c.NodeRate = 20
	}
	if c.Burst <= 0 {
		c.Burst = 4
	}
	if c.Depth <= 0 {
		c.Depth = 8
	}
	if len(c.Multipliers) == 0 {
		c.Multipliers = []float64{0.5, 1, 1.5, 2}
	}
	if c.Requests <= 0 {
		c.Requests = 1200
	}
	if c.HopLatency <= 0 {
		c.HopLatency = time.Millisecond
	}
	if c.SLO <= 0 {
		c.SLO = 500 * time.Millisecond
	}
	return c
}

// Capacity returns the aggregate cluster capacity in requests/s.
func (c OverloadConfig) Capacity() float64 {
	return float64(c.Nodes) * c.NodeRate
}

// OverloadPoint is one (offered rate, shedding mode) cell of the sweep.
type OverloadPoint struct {
	// Multiplier is the offered rate as a fraction of capacity.
	Multiplier float64
	// Offered is the offered rate in requests/s.
	Offered float64
	// Shed reports whether admission control was on for this run.
	Shed bool
	// Result is the full driver result, fingerprint included.
	Result *loadgen.Result
}

// Goodput is the point's good completions per second.
func (p OverloadPoint) Goodput() float64 { return p.Result.Goodput() }

// OverloadResult carries the sweep: for each multiplier, the
// shedding-off point followed by the shedding-on point.
type OverloadResult struct {
	Config OverloadConfig
	Points []OverloadPoint
	// Fingerprint hashes the per-run fingerprints in sweep order; two
	// runs with the same config must agree bit for bit.
	Fingerprint string
}

// At returns the point for the given multiplier and shedding mode, or
// nil if the sweep has none.
func (r *OverloadResult) At(mult float64, shed bool) *OverloadPoint {
	for i := range r.Points {
		if r.Points[i].Multiplier == mult && r.Points[i].Shed == shed {
			return &r.Points[i]
		}
	}
	return nil
}

// RunOverload sweeps offered rate against a virtual-time cluster,
// pairing every rate with a shedding-off and a shedding-on run. All
// randomness is seeded; the result fingerprint is bit-identical across
// runs with equal configs.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg = cfg.withDefaults()
	res := &OverloadResult{Config: cfg}
	fp := sha256.New()
	for _, mult := range cfg.Multipliers {
		offered := mult * cfg.Capacity()
		for _, shed := range []bool{false, true} {
			// Arrivals carry a cursor, so each run gets a fresh one.
			run, err := loadgen.RunSim(loadgen.SimConfig{
				Nodes:      cfg.Nodes,
				Seed:       cfg.Seed,
				Requests:   cfg.Requests,
				Arrivals:   loadgen.NewConstant(offered),
				Workload:   cfg.Workload,
				NodeRate:   cfg.NodeRate,
				Burst:      cfg.Burst,
				Depth:      cfg.Depth,
				Shed:       shed,
				HopLatency: cfg.HopLatency,
				SLO:        cfg.SLO,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: overload %.2gx shed=%v: %w", mult, shed, err)
			}
			res.Points = append(res.Points, OverloadPoint{
				Multiplier: mult,
				Offered:    offered,
				Shed:       shed,
				Result:     run,
			})
			fmt.Fprintf(fp, "%.6f/%v/%s\n", mult, shed, run.Fingerprint)
		}
	}
	res.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	return res, nil
}

// RenderOverload formats the sweep as offered-rate vs goodput and tail
// latency, one row per (rate, shedding mode).
func RenderOverload(r *OverloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload sweep: %d nodes x %.0f req/s each = %.0f req/s capacity (queue depth %d, SLO %v)\n",
		r.Config.Nodes, r.Config.NodeRate, r.Config.Capacity(), r.Config.Depth, r.Config.SLO)
	fmt.Fprintf(&b, "%8s %9s %6s %9s %7s %10s %10s %10s\n",
		"offered", "shedding", "shed", "goodput", "good%", "p50", "p99", "p999")
	for _, p := range r.Points {
		mode := "off"
		if p.Shed {
			mode = "on"
		}
		fmt.Fprintf(&b, "%6.2fx %9s %6d %7.1f/s %6.1f%% %10v %10v %10v\n",
			p.Multiplier, mode, p.Result.Shed, p.Goodput(),
			100*float64(p.Result.Good)/float64(max(1, p.Result.Issued)),
			p.Result.P(50).Round(time.Millisecond),
			p.Result.P(99).Round(time.Millisecond),
			p.Result.P(99.9).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	return b.String()
}
