package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"past/internal/experiments"
	"past/internal/obs"
)

// TestMain lets a test run past-chaos's main in a subprocess: with
// PAST_CHAOS_MAIN set, the test binary is past-chaos.
func TestMain(m *testing.M) {
	if os.Getenv("PAST_CHAOS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagItsModeDoesNotReadRefused: a flag the selected mode would
// ignore stops past-chaos with exit 2, before anything runs, and a
// message naming it.
func TestFlagItsModeDoesNotReadRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-ec-durability", "-nodes", "50", "-drop", "0.3"},
		{"-compare", "-verify"},
		{"-compare", "-resilience"},
		{"-crash", "-resilience", "-trace", "3"},
		{"-ec-durability", "-crash"},
		{"-check-events", "run.jsonl", "-seed", "3"},
		{"-crash-ops", "10"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "PAST_CHAOS_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("past-chaos %v: %v", args, err)
		}
		flag := args[len(args)-1]
		if !strings.HasPrefix(flag, "-") {
			flag = args[len(args)-2]
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(stderr.String(), flag) {
			t.Errorf("past-chaos %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, flag, stderr.String())
		}
	}
}

// smallSoak is past-chaos's soak at seed on 25 nodes, 25 files and 8
// ticks.
func smallSoak(seed int64) experiments.SoakConfig {
	cfg := experiments.DefaultSoakConfig()
	cfg.Seed, cfg.Nodes, cfg.Files, cfg.Ticks = seed, 25, 25, 8
	return cfg
}

func TestRunDefaultSoak(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	code, err := run(null, smallSoak(1), false)
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
	code, err := run(null, smallSoak(2), true)
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
	cfg := smallSoak(9)
	cfg.Ticks, cfg.TraceEvery, cfg.Events = 6, 2, elog
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
