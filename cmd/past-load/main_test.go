package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"past/internal/loadgen"
)

// TestMain lets a test run past-load's main in a subprocess: with
// PAST_LOAD_MAIN set, the test binary is past-load.
func TestMain(m *testing.M) {
	if os.Getenv("PAST_LOAD_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pastLoad runs past-load with args and returns its stdout, its stderr
// and its exit code.
func pastLoad(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAST_LOAD_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("past-load %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// TestFlagItsModeDoesNotReadRefused: a flag the selected mode would
// ignore stops past-load with exit 2 and a message naming it.
func TestFlagItsModeDoesNotReadRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-sim", "-sweep", "-rate", "300"},
		{"-sim", "-cache-sweep", "-no-shed"},
		{"-sim", "-cache-check", "-depth", "4"},
		{"-sim", "-conc", "4"},
		{"-sim", "-cache-ram", "1024"},
		{"-sim", "-cache-sweep", "-sweep"},
		{"-node", "127.0.0.1:1", "-nodes", "5"},
		{"-node", "127.0.0.1:1", "-verify"},
	} {
		flag := args[len(args)-1]
		if !strings.HasPrefix(flag, "-") {
			flag = args[len(args)-2]
		}
		_, stderr, code := pastLoad(t, args...)
		if code != 2 || !strings.Contains(stderr, flag) {
			t.Errorf("past-load %v: exit %d, want 2 naming %s; stderr:\n%s", args, code, flag, stderr)
		}
	}
}

// TestSweepsHonourECAndVerify: -ec and -verify apply to a sweep as they
// do to a single run.
func TestSweepsHonourECAndVerify(t *testing.T) {
	run := []string{"-sim", "-sweep", "-nodes", "6", "-node-rate", "20", "-requests", "80", "-verify"}
	plain, _, code := pastLoad(t, run...)
	if code != 0 || !strings.Contains(plain, "VERIFY: ok") {
		t.Fatalf("past-load %v: exit %d:\n%s", run, code, plain)
	}
	coded, _, code := pastLoad(t, append(run, "-ec", "4,2")...)
	if code != 0 || !strings.Contains(coded, "VERIFY: ok") {
		t.Fatalf("past-load %v -ec 4,2: exit %d:\n%s", run, code, coded)
	}
	if plain == coded {
		t.Fatal("-ec 4,2 did not change the sweep")
	}
}

func TestReportDoesNotPanic(t *testing.T) {
	sc := loadgen.DefaultSimConfig()
	sc.Nodes, sc.Requests, sc.Rate, sc.NodeRate, sc.Workload.Files = 6, 200, 300, 50, 16
	res, err := loadgen.RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	report(res, sc.SLO)
}
