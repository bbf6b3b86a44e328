package daemon

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// daemonEnv is the sentinel that turns an exec of the test binary into
// a pastd process (internal/cluster's idiom; it imports this package,
// so its helper cannot be used here).
const daemonEnv = "PAST_DAEMON_TEST_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		os.Exit(Run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// runPastd starts this binary as pastd on an ephemeral port and returns
// what it logged and its exit code. A daemon that comes up serves until
// it is killed, which happens when a log line contains until.
func runPastd(t *testing.T, until string, args ...string) (logged string, code int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	var out strings.Builder
	for sc := bufio.NewScanner(stderr); sc.Scan(); {
		out.WriteString(sc.Text() + "\n")
		if until != "" && strings.Contains(sc.Text(), until) {
			cmd.Process.Kill()
		}
	}
	_ = cmd.Wait() // the exit code below says how it ended
	return out.String(), cmd.ProcessState.ExitCode()
}

// TestDataDirAloneMeansLogStore pins both sides of the backend
// derivation: -data opens a log store there, no -data an in-memory one.
func TestDataDirAloneMeansLogStore(t *testing.T) {
	dir := t.TempDir()
	logged, _ := runPastd(t, "bootstrapped network", "-data", dir)
	if !strings.Contains(logged, "log-structured storage at "+dir+" (0 replicas, 0 WAL records replayed") {
		t.Fatalf("-data did not open a log store:\n%s", logged)
	}
	if wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(wals) != 1 {
		t.Fatalf("no WAL in %s after the daemon ran: %v", dir, wals)
	}

	logged, _ = runPastd(t, "bootstrapped network")
	if !strings.Contains(logged, "in-memory storage") || strings.Contains(logged, "log-structured") {
		t.Fatalf("no -data did not keep the store in memory:\n%s", logged)
	}
}

// TestFlagWithoutItsMechanismRefused: a flag that only matters when
// another mechanism is on stops the daemon instead of being ignored.
func TestFlagWithoutItsMechanismRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ec-repair-budget", "256KB"}, "-ec-repair-budget requires -ec"},
		{[]string{"-ec-repair-budget", "banana"}, `-ec-repair-budget: invalid size "banana"`},
		{[]string{"-ec", "3,2", "-ec-repair-budget", "banana"}, `-ec-repair-budget: invalid size "banana"`},
	} {
		logged, code := runPastd(t, "bootstrapped network", c.args...)
		if code != 1 || !strings.Contains(logged, c.want) {
			t.Errorf("pastd %v: exit %d, want 1 with %q; logged:\n%s", c.args, code, c.want, logged)
		}
	}
	// With its mechanism on, the same flag starts the node.
	if logged, _ := runPastd(t, "bootstrapped network", "-ec", "3,2", "-ec-repair-budget", "256KB"); !strings.Contains(logged, "bootstrapped network") {
		t.Fatalf("-ec 3,2 -ec-repair-budget 256KB did not start:\n%s", logged)
	}
}

// TestOldFormatsRefused: a directory written by a build that still had
// DiskStore or the gob checkpoint must stop the daemon with an error
// naming what it found, not come up as an empty store over it.
func TestOldFormatsRefused(t *testing.T) {
	for name, plant := range map[string]func(dir string) error{
		"meta.gob": func(dir string) error { return os.WriteFile(filepath.Join(dir, "meta.gob"), []byte("gob"), 0o644) },
		"objects":  func(dir string) error { return os.Mkdir(filepath.Join(dir, "objects"), 0o755) },
		"checkpoint.gob": func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "checkpoint.gob"), []byte("gob"), 0o644)
		},
		"PASTWAL1": func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "wal-00000001.log"), []byte("PASTWAL1 and then records"), 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := plant(dir); err != nil {
				t.Fatal(err)
			}
			logged, code := runPastd(t, "", "-data", dir)
			if code == 0 || !strings.Contains(logged, name) || !strings.Contains(logged, "cannot read") {
				t.Fatalf("exit %d, logged:\n%s", code, logged)
			}
			if wal, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log")); name == "PASTWAL1" && (err != nil || !strings.HasPrefix(string(wal), "PASTWAL1 and")) {
				t.Fatalf("the refused WAL was modified: %q, %v", wal, err)
			}
		})
	}
}
