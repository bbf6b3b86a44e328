package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/pastry"
	"past/internal/topology"
)

// Figure 1's parameters: a 64-node emulated network with b=2 (base-4
// digits) and l=8, ids shown as their leading 8 digits.
const (
	fig1Nodes  = 64
	fig1B      = 2
	fig1L      = 8
	fig1Digits = 8
)

// RenderFig1 reproduces Figure 1 of the paper: the state of a Pastry
// node — routing table (rows of 2^b-1 entries, the shared prefix with
// the present node highlighted), leaf set (smaller and larger sides),
// and neighborhood set. It builds the figure's network and renders one
// node's state, nodeIds as base-2^b digit strings like the figure's
// base-4 ids.
func RenderFig1(seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	net := netsim.New()
	cfg := pastry.Config{B: fig1B, L: fig1L}
	var nodes []*pastry.Node
	plane := topology.DefaultPlane
	for i := 0; i < fig1Nodes; i++ {
		var nid id.Node
		rng.Read(nid[:])
		node := pastry.New(nid, net, cfg, nil, rng.Int63())
		net.Register(nid, plane.RandomPoint(rng), node)
		if i == 0 {
			node.Bootstrap()
		} else {
			boot := nodes[rng.Intn(len(nodes))].ID()
			if err := node.Join(boot); err != nil {
				return "", err
			}
		}
		nodes = append(nodes, node)
	}

	subject := nodes[rng.Intn(len(nodes))]
	self := subject.ID()
	render := func(x id.Node) string { return digitString(x, fig1B, fig1Digits) }

	var b strings.Builder
	fmt.Fprintf(&b, "NodeId %s   (b=%d, l=%d, %d nodes; ids shown as leading %d base-%d digits)\n\n",
		render(self), fig1B, fig1L, fig1Nodes, fig1Digits, 1<<fig1B)

	fmt.Fprintln(&b, "Routing table (row r: entries share the first r digits; own digit marked *)")
	for r := 0; r < fig1Digits; r++ { // only the rows the id display covers
		var cells []string
		for col, e := range subject.TableRow(r) {
			switch {
			case col == self.Digit(r, fig1B):
				cells = append(cells, fmt.Sprintf("[*%d*]", col))
			case e.IsZero():
				cells = append(cells, strings.Repeat("-", fig1Digits+2))
			default:
				cells = append(cells, formatEntry(e, fig1B, r, fig1Digits))
			}
		}
		fmt.Fprintf(&b, "  row %d: %s\n", r, strings.Join(cells, " "))
	}

	lo, hi := subject.LeafSides()
	fmt.Fprintln(&b, "\nLeaf set")
	fmt.Fprintf(&b, "  SMALLER: %s\n", renderList(lo, render))
	fmt.Fprintf(&b, "  LARGER:  %s\n", renderList(hi, render))

	fmt.Fprintln(&b, "\nNeighborhood set (proximally closest)")
	fmt.Fprintf(&b, "  %s\n", renderList(subject.Neighborhood(), render))
	return b.String(), nil
}

// digitString renders the leading digits of an id in base 2^b.
func digitString(x id.Node, b, digits int) string {
	var sb strings.Builder
	for i := 0; i < digits; i++ {
		fmt.Fprintf(&sb, "%x", x.Digit(i, b))
	}
	return sb.String()
}

// formatEntry renders a routing-table entry split the way Figure 1 does:
// common prefix - next digit - rest.
func formatEntry(e id.Node, b, row, digits int) string {
	s := digitString(e, b, digits)
	if row >= len(s) {
		return s
	}
	return s[:row] + "|" + s[row:row+1] + "|" + s[row+1:]
}

func renderList(ids []id.Node, render func(id.Node) string) string {
	if len(ids) == 0 {
		return "(empty)"
	}
	out := make([]string, len(ids))
	for i, x := range ids {
		out[i] = render(x)
	}
	return strings.Join(out, " ")
}
