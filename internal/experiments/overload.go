package experiments

import (
	"fmt"
	"strings"
	"time"

	"past/internal/loadgen"
)

// The overload sweep runs every offered rate twice — once with an
// unbounded per-node queue and once with bounded-queue admission
// control — so the curves show what shedding buys (and costs) on
// either side of saturation. Its modes are named by SimConfig.Shed's
// value, which the sweep's digest has keyed them by since it was
// pinned.
const (
	ShedOff = "false"
	ShedOn  = "true"
)

var (
	// OverloadRates are the overload sweep's offered rates, as
	// fractions of capacity.
	OverloadRates = []float64{0.5, 1, 1.5, 2}
	// ShedModes are the overload sweep's modes: shedding off, then on.
	ShedModes = []Mode{
		{ShedOff, func(sc *loadgen.SimConfig) { sc.Shed = false }},
		{ShedOn, func(sc *loadgen.SimConfig) { sc.Shed = true }},
	}
)

// RenderOverload formats the sweep as offered-rate vs goodput and tail
// latency, one row per (rate, shedding mode).
func RenderOverload(r *SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload sweep: %d nodes x %.0f req/s each = %.0f req/s capacity (queue depth %d, SLO %v)\n",
		r.Base.Nodes, r.Base.NodeRate, r.Base.Capacity(), r.Base.Depth, r.Base.SLO)
	fmt.Fprintf(&b, "%8s %9s %6s %9s %7s %10s %10s %10s\n",
		"offered", "shedding", "shed", "goodput", "good%", "p50", "p99", "p999")
	for _, p := range r.Points {
		mode := "off"
		if p.Mode == ShedOn {
			mode = "on"
		}
		fmt.Fprintf(&b, "%6.2fx %9s %6d %7.1f/s %6.1f%% %10v %10v %10v\n",
			p.Mult, mode, p.Result.Shed, p.Goodput(),
			100*float64(p.Result.Good)/float64(max(1, p.Result.Issued)),
			p.Result.P(50).Round(time.Millisecond),
			p.Result.P(99).Round(time.Millisecond),
			p.Result.P(99.9).Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "fingerprint: %s\n", r.Fingerprint)
	return b.String()
}

// CheckOverload asserts the property admission control exists for: at
// 2x capacity shedding sheds something and strictly beats the
// unbounded queue on both goodput and p99. On success it returns what
// shedding bought there.
func CheckOverload(r *SweepResult) (string, error) {
	off, on := r.At(2, ShedOff), r.At(2, ShedOn)
	switch {
	case off == nil || on == nil:
		return "", fmt.Errorf("sweep is missing the 2x-capacity points")
	case on.Result.Shed == 0:
		return "", fmt.Errorf("admission control shed nothing at 2x capacity")
	case on.Goodput() <= off.Goodput():
		return "", fmt.Errorf("goodput with shedding %.1f/s <= without %.1f/s", on.Goodput(), off.Goodput())
	case on.Result.P(99) >= off.Result.P(99):
		return "", fmt.Errorf("p99 with shedding %v >= without %v", on.Result.P(99), off.Result.P(99))
	}
	return fmt.Sprintf("at 2x capacity shedding lifts goodput %.1f/s -> %.1f/s and cuts p99 %v -> %v",
		off.Goodput(), on.Goodput(),
		off.Result.P(99).Round(time.Millisecond), on.Result.P(99).Round(time.Millisecond)), nil
}
