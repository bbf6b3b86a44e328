package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"past/internal/loadgen"
)

var updateContract = flag.Bool("update", false, "rewrite testdata/contract.golden from this run")

const contractGolden = "testdata/contract.golden"

// pastLoad runs one past-load command line the way past-load runs it,
// its flags bound by loadgen.ParseCommand, and returns the fingerprint
// it prints.
func pastLoad(line string) (string, error) {
	c, err := loadgen.ParseCommand(strings.Fields(line)[1:], io.Discard)
	if err != nil {
		return "", err
	}
	var r *SweepResult
	switch c.Mode {
	case "sim":
		res, err := loadgen.RunSim(c.Sim)
		if err != nil {
			return "", err
		}
		return res.Fingerprint, nil
	case "sweep", "check":
		r, err = RunSweep(c.Sim, OverloadRates, ShedModes)
	case "cache-sweep", "cache-check":
		r, err = RunSweep(c.Sim, CacheRates, CacheModes)
	default:
		return "", fmt.Errorf("%s mode prints no fingerprint", c.Mode)
	}
	if err != nil {
		return "", err
	}
	return r.Fingerprint, nil
}

// pastChaos runs one past-chaos command line the way past-chaos runs
// it, its flags bound by ParseChaosCommand, and returns the fingerprint
// it prints. A line ending in "(report)" returns the sha256 of the
// whole soak report instead: the checker's verdict, the violation list
// and the post-heal lookups are in it.
func pastChaos(line string) (string, error) {
	args := strings.Fields(line)[1:]
	report := args[len(args)-1] == "(report)"
	if report {
		args = args[:len(args)-1]
	}
	c, err := ParseChaosCommand(args, io.Discard)
	if err != nil {
		return "", err
	}
	switch c.Mode {
	case "soak":
		r, err := RunSoak(c.Soak)
		if err != nil {
			return "", err
		}
		if report {
			sum := sha256.Sum256([]byte(RenderSoak(r)))
			return hex.EncodeToString(sum[:]), nil
		}
		return r.Fingerprint, nil
	case "ec-durability":
		r, err := RunECDurability(c.EC)
		if err != nil {
			return "", err
		}
		return r.Fingerprint, nil
	}
	return "", fmt.Errorf("%s mode prints no fingerprint", c.Mode)
}

// TestContractFingerprints pins the seeded fingerprints the binaries
// print, one row per command line, against testdata/contract.golden.
// Each row is the one call its binary makes, built from its command
// line by the parse its binary's main uses. A change that moves one must say so: rerun with -update and
// commit the new golden file with the reason.
func TestContractFingerprints(t *testing.T) {
	t.Parallel()
	rows := []struct {
		name string
		run  func(line string) (string, error)
	}{
		{"past-load -sim -cache-check -seed 1 -requests 1500 -files 192 -cache-ram 32768", pastLoad},
		{"past-chaos -seed 7", pastChaos},
		{"past-chaos -resilience -seed 7", pastChaos},
		{"past-chaos -seed 7 (report)", pastChaos},
		{"past-chaos -resilience -seed 7 (report)", pastChaos},
		{"past-load -sim -check -seed 1 -nodes 10 -node-rate 20 -requests 1500", pastLoad},
		{"past-load -sim -seed 1 -nodes 10 -node-rate 20 -rate 400 -requests 1500", pastLoad},
		{"past-chaos -ec-durability", pastChaos},
		{"past-load -sim -ec 4,2 -requests 500", pastLoad},
	}

	var got strings.Builder
	for _, row := range rows {
		fp, err := row.run(row.name)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		fmt.Fprintf(&got, "%s  %s\n", fp, row.name)
	}
	if *updateContract {
		if err := os.WriteFile(contractGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(contractGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("fingerprints differ from %s (rerun with -update only if the change is meant):\ngot:\n%swant:\n%s",
			contractGolden, got.String(), want)
	}
}
