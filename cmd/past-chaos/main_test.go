package main

import (
	"os"
	"path/filepath"
	"testing"

	"past/internal/experiments"
	"past/internal/obs"
)

func TestRunDefaultSoak(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	code, err := run(null, experiments.SoakConfig{Seed: 1, Nodes: 25, Files: 25, Ticks: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d; want 0 (invariant violation?)", code)
	}
}

func TestRunVerifyMode(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	code, err := run(null, experiments.SoakConfig{Seed: 2, Nodes: 25, Files: 25, Ticks: 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d; want 0", code)
	}
}

func TestCheckEvents(t *testing.T) {
	dir := t.TempDir()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()

	good := filepath.Join(dir, "good.jsonl")
	f, err := os.Create(good)
	if err != nil {
		t.Fatal(err)
	}
	elog := obs.NewEventLog(f)
	cfg := experiments.SoakConfig{Seed: 9, Nodes: 25, Files: 25, Ticks: 6, TraceEvery: 2, Events: elog}
	if code, err := run(null, cfg, false); err != nil || code != 0 {
		t.Fatalf("soak run: code %d, err %v", code, err)
	}
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if elog.Count() == 0 {
		t.Fatal("soak emitted no events")
	}
	if code, err := checkEvents(null, good); err != nil || code != 0 {
		t.Fatalf("checkEvents(good) = %d, %v; want 0, nil", code, err)
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"kind\":\"fault\"}\nnope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := checkEvents(null, bad); err != nil || code != 1 {
		t.Fatalf("checkEvents(bad) = %d, %v; want 1, nil", code, err)
	}
	if _, err := checkEvents(null, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("checkEvents on a missing file must error")
	}
}
