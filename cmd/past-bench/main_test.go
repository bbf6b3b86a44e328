package main

import (
	"strings"
	"testing"

	"past/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	// fig1, table1 and routing are cheap enough for CI; the heavyweight
	// experiments are covered by internal/experiments tests.
	for _, exp := range []string{"fig1", "table1", "routing", "overload"} {
		if err := run(exp, experiments.ScaleTiny, 1, 1, nil); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("tableX", experiments.ScaleTiny, 1, 1, nil); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// -seeds N > 1 applies only to the storage sweeps; any other id, known
// or not, must fail naming the ids that have a multi-seed form rather
// than print nothing.
func TestSeedsRejectsExperimentWithoutMultiSeedForm(t *testing.T) {
	for _, exp := range []string{"fig8", "bogus"} {
		err := run(exp, experiments.ScaleTiny, 1, 2, nil)
		if err == nil {
			t.Fatalf("-seeds 2 -exp %s must fail", exp)
		}
		if !strings.Contains(err.Error(), "baseline, table2, table3, table4") {
			t.Fatalf("-seeds 2 -exp %s: error %q does not name the multi-seed ids", exp, err)
		}
	}
}
