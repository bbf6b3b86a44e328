package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

const rendersGolden = "testdata/renders.golden"

// rendersMu serializes -update rewrites of rendersGolden, which the
// parallel shape tests share.
var rendersMu sync.Mutex

// pinRender checks the sha256 of a tiny-scale render against its row in
// testdata/renders.golden, so a refactor that moves any printed figure
// fails here. Rerun with -update only for a meant change, and say why.
func pinRender(t *testing.T, row, render string) {
	t.Helper()
	sum := sha256.Sum256([]byte(render))
	line := hex.EncodeToString(sum[:]) + "  " + row
	rendersMu.Lock()
	defer rendersMu.Unlock()
	data, err := os.ReadFile(rendersGolden)
	if err != nil && !(*updateContract && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	var lines []string
	if len(data) > 0 {
		lines = strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	i := slices.IndexFunc(lines, func(l string) bool {
		_, name, _ := strings.Cut(l, "  ")
		return name == row
	})
	switch {
	case *updateContract && i < 0:
		lines = append(lines, line)
	case *updateContract:
		lines[i] = line
	case i < 0:
		t.Fatalf("%s: no row in %s (rerun with -update to add it)", row, rendersGolden)
	case lines[i] != line:
		t.Fatalf("%s: render differs from %s (rerun with -update only if the change is meant):\n%s", row, rendersGolden, render)
	default:
		return
	}
	if err := os.WriteFile(rendersGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
