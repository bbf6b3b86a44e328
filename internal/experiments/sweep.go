package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"past/internal/loadgen"
)

// Mode is one named configuration a sweep runs at every offered rate:
// Set changes the base run into this mode's run.
type Mode struct {
	Name string
	Set  func(*loadgen.SimConfig)
}

// Point is one (offered rate, mode) cell of a sweep.
type Point struct {
	// Mult is the offered rate as a fraction of the base's capacity.
	Mult float64
	// Mode is the name of the mode the cell ran.
	Mode string
	// Result is the full driver result, fingerprint included.
	Result *loadgen.Result
}

// Goodput is the point's good completions per second.
func (p Point) Goodput() float64 { return p.Result.Goodput() }

// HitRate is the point's cluster-wide cache hit rate.
func (p Point) HitRate() float64 { return p.Result.Cache.HitRate() }

// SweepResult carries a sweep, mode-major within each offered rate.
type SweepResult struct {
	Base   loadgen.SimConfig
	Mults  []float64
	Points []Point
	// Fingerprint hashes the per-run fingerprints in sweep order; two
	// sweeps of the same inputs agree bit for bit.
	Fingerprint string
}

// At returns the point for a multiplier and mode, or nil.
func (r *SweepResult) At(mult float64, mode string) *Point {
	for i := range r.Points {
		if r.Points[i].Mult == mult && r.Points[i].Mode == mode {
			return &r.Points[i]
		}
	}
	return nil
}

// RunSweep runs base at each offered rate mults[i] * base.Capacity()
// once per mode, in virtual time. All randomness is seeded, so the
// result, fingerprint included, is bit-identical across runs with equal
// inputs; different modes legitimately produce different request
// outcomes, so their run fingerprints differ from each other.
func RunSweep(base loadgen.SimConfig, mults []float64, modes []Mode) (*SweepResult, error) {
	res := &SweepResult{Base: base, Mults: mults}
	fp := sha256.New()
	for _, mult := range mults {
		for _, m := range modes {
			sc := base
			sc.Rate = mult * base.Capacity()
			m.Set(&sc)
			run, err := loadgen.RunSim(sc)
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep %.2gx %s: %w", mult, m.Name, err)
			}
			res.Points = append(res.Points, Point{Mult: mult, Mode: m.Name, Result: run})
			fmt.Fprintf(fp, "%.6f/%s/%s\n", mult, m.Name, run.Fingerprint)
		}
	}
	res.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	return res, nil
}
