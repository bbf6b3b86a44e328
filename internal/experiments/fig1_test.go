package experiments

import (
	"os"
	"testing"

	"past/internal/id"
)

// TestFig1MatchesGolden pins Figure 1 byte for byte: testdata/fig1.golden
// is the node-state printout at seed 1 from before the figure moved into
// past-bench.
func TestFig1MatchesGolden(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile("testdata/fig1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RenderFig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Figure 1 differs from testdata/fig1.golden:\n%s", got)
	}
}

func TestDigitString(t *testing.T) {
	t.Parallel()
	n := id.Node{0x1B} // base-4 digits 0,1,2,3
	if s := digitString(n, 2, 4); s != "0123" {
		t.Fatalf("digitString = %q; want 0123", s)
	}
}

func TestFormatEntry(t *testing.T) {
	t.Parallel()
	n := id.Node{0x1B}
	if s := formatEntry(n, 2, 1, 4); s != "0|1|23" {
		t.Fatalf("formatEntry = %q", s)
	}
	if s := formatEntry(n, 2, 9, 4); s != "0123" {
		t.Fatalf("row beyond display = %q", s)
	}
}

func TestRenderList(t *testing.T) {
	t.Parallel()
	r := func(x id.Node) string { return x.Short() }
	if s := renderList(nil, r); s != "(empty)" {
		t.Fatalf("empty list = %q", s)
	}
	if s := renderList([]id.Node{id.NodeFromUint64(1)}, r); s == "" {
		t.Fatal("non-empty render empty")
	}
}
