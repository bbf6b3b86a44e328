package id

import (
	"math/big"
	"math/rand"
	"testing"
)

// The ring arithmetic is written on uint64 halves; math/big is the
// reference it must agree with.

var ringSize = new(big.Int).Lsh(big.NewInt(1), 128)

func toBig(n Node) *big.Int { return new(big.Int).SetBytes(n[:]) }

func fromBig(v *big.Int) Node {
	var n Node
	v.FillBytes(n[:])
	return n
}

// refCWDist is (o - n) mod 2^128.
func refCWDist(n, o Node) *big.Int {
	d := new(big.Int).Sub(toBig(o), toBig(n))
	return d.Mod(d, ringSize)
}

// refRingDist is min((n-o) mod 2^128, (o-n) mod 2^128).
func refRingDist(n, o Node) *big.Int {
	a, b := refCWDist(n, o), refCWDist(o, n)
	if a.Cmp(b) < 0 {
		return a
	}
	return b
}

func refCloser(n, a, b Node) bool {
	if c := refRingDist(n, a).Cmp(refRingDist(n, b)); c != 0 {
		return c < 0
	}
	return toBig(a).Cmp(toBig(b)) < 0
}

// arithmeticCases returns ids chosen to hit carries, borrows and ties:
// the ends of the namespace, the half boundary, and for a few centres
// c the points c±d (equally distant on both sides) and c+2^127 (the
// antipode, whose two directional distances coincide).
func arithmeticCases(r *rand.Rand) []Node {
	max := fromBig(new(big.Int).Sub(ringSize, big.NewInt(1)))
	out := []Node{
		{}, NodeFromUint64(1), max, NodeFromHalves(^uint64(0), 0), NodeFromHalves(0, ^uint64(0)),
		NodeFromHalves(1, 0), NodeFromHalves(1<<63, 0), NodeFromHalves(1<<63-1, ^uint64(0)),
	}
	for i := 0; i < 4; i++ {
		c := randNode(r)
		d := new(big.Int).Rand(r, ringSize)
		plus := new(big.Int).Add(toBig(c), d)
		minus := new(big.Int).Sub(toBig(c), d)
		anti := new(big.Int).Add(toBig(c), new(big.Int).Lsh(big.NewInt(1), 127))
		out = append(out, c,
			fromBig(plus.Mod(plus, ringSize)),
			fromBig(minus.Mod(minus, ringSize)),
			fromBig(anti.Mod(anti, ringSize)))
	}
	for i := 0; i < 8; i++ {
		out = append(out, randNode(r))
	}
	return out
}

func TestArithmeticMatchesBigReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ids := arithmeticCases(r)
	for _, n := range ids {
		for _, a := range ids {
			if got, want := n.Cmp(a), toBig(n).Cmp(toBig(a)); got != want {
				t.Fatalf("Cmp(%v, %v) = %d; want %d", n, a, got, want)
			}
			if got, want := n.Less(a), toBig(n).Cmp(toBig(a)) < 0; got != want {
				t.Fatalf("Less(%v, %v) = %v; want %v", n, a, got, want)
			}
			if d, want := n.DistCW(a), fromBig(refCWDist(n, a)); NodeFromHalves(d.Hi, d.Lo) != want {
				t.Fatalf("DistCW(%v, %v) = %v; want %v", n, a, d, want)
			}
			if got, want := n.RingDist(a), fromBig(refRingDist(n, a)); got != want {
				t.Fatalf("RingDist(%v, %v) = %v; want %v", n, a, got, want)
			}
			for _, b := range ids {
				if got, want := n.Closer(a, b), refCloser(n, a, b); got != want {
					t.Fatalf("%v.Closer(%v, %v) = %v; want %v", n, a, b, got, want)
				}
			}
		}
	}
}
