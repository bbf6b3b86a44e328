package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistanceProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{math.Mod(math.Abs(ax), 1000), math.Mod(math.Abs(ay), 1000)}
		b := Point{math.Mod(math.Abs(bx), 1000), math.Mod(math.Abs(by), 1000)}
		d := Distance(a, b)
		// Non-negative, symmetric, zero iff equal (within fp exactness here).
		if d < 0 || Distance(b, a) != d {
			return false
		}
		if a == b && d != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := DefaultPlane
	for i := 0; i < 1000; i++ {
		a, b, c := p.RandomPoint(r), p.RandomPoint(r), p.RandomPoint(r)
		if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-9 {
			t.Fatal("triangle inequality violated")
		}
	}
}

func TestUniformInBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := DefaultPlane.Uniform(r, 500)
	if len(pts) != 500 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.X < 0 || pt.X > 1000 || pt.Y < 0 || pt.Y > 1000 {
			t.Fatalf("point %+v out of plane", pt)
		}
	}
}
