// Package topology models network proximity. The paper defines proximity
// as any scalar metric (IP hops, bandwidth, geographic distance); for the
// emulated network we place every node at a point on a bounded 2-D plane
// and use Euclidean distance, the same simplification used by the Pastry
// evaluation.
package topology

import (
	"math"
	"math/rand"
)

// Point is a position on the emulated plane.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean proximity metric between two points.
func Distance(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Plane describes the bounded 2-D space nodes live in.
type Plane struct {
	Side float64 // edge length of the square plane
}

// DefaultPlane is the plane used by all experiments: a 1000x1000 square,
// so proximity values fall in [0, ~1414].
var DefaultPlane = Plane{Side: 1000}

// RandomPoint draws a uniformly distributed point on the plane.
func (p Plane) RandomPoint(r *rand.Rand) Point {
	return Point{X: r.Float64() * p.Side, Y: r.Float64() * p.Side}
}

// Uniform returns n points distributed uniformly at random on the plane.
// This is the node layout for the storage experiments, where proximity is
// irrelevant to the results but still exercised by routing.
func (p Plane) Uniform(r *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = p.RandomPoint(r)
	}
	return pts
}
