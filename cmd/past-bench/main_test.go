package main

import (
	"testing"

	"past/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	// fig1, table1 and routing are cheap enough for CI; the heavyweight
	// experiments are covered by internal/experiments tests and the
	// root benchmarks.
	for _, exp := range []string{"fig1", "table1", "routing", "overload"} {
		if err := run(exp, experiments.ScaleTiny, 1, nil); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("tableX", experiments.ScaleTiny, 1, nil); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
