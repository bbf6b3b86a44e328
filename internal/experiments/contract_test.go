package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"past/internal/ec"
	"past/internal/loadgen"
)

var updateContract = flag.Bool("update", false, "rewrite testdata/contract.golden from this run")

const contractGolden = "testdata/contract.golden"

// pastLoadWorkload is past-load's workload at its flag defaults.
var pastLoadWorkload = loadgen.Workload{Files: 128, Alpha: 0.8, LookupFrac: 0.9, MaxPayload: 4096}

// pastLoadSim is the loadgen.SimConfig past-load -sim builds at its flag
// defaults for the given nodes, node rate, offered rate and requests.
func pastLoadSim(nodes int, nodeRate, rate float64, requests int) loadgen.SimConfig {
	return loadgen.SimConfig{
		Nodes:      nodes,
		Seed:       1,
		Requests:   requests,
		Arrivals:   loadgen.NewConstant(rate),
		Workload:   pastLoadWorkload,
		NodeRate:   nodeRate,
		Burst:      4,
		Depth:      8,
		Shed:       true,
		HopLatency: time.Millisecond,
		SLO:        500 * time.Millisecond,
	}
}

// soakReportDigest hashes the whole report past-chaos prints for cfg,
// not just the fault fingerprint: the checker's verdict, the violation
// list and the post-heal lookups are in it.
func soakReportDigest(cfg SoakConfig) (string, error) {
	r, err := RunSoak(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(RenderSoak(r)))
	return hex.EncodeToString(sum[:]), nil
}

// TestContractFingerprints pins the seeded fingerprints the binaries
// print, one row per command line, against testdata/contract.golden.
// Each row is the one call its binary makes, built as its flags build
// it. A change that moves one must say so: rerun with -update and
// commit the new golden file with the reason.
func TestContractFingerprints(t *testing.T) {
	rows := []struct {
		name string
		run  func() (string, error)
	}{
		{"past-load -sim -cache-check -seed 1 -requests 1500 -files 192 -cache-ram 32768", func() (string, error) {
			r, err := RunCacheRate(CacheRateConfig{
				Nodes: 25, NodeRate: 100, Requests: 1500, Files: 192, Alpha: 0.8,
				MaxPayload: 4096, RAMBytes: 32 << 10, FlashBytes: 1 << 20, Shards: 4,
				FlashDir: t.TempDir(), Seed: 1,
			})
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
		{"past-chaos -seed 7", func() (string, error) {
			r, err := RunSoak(SoakConfig{Seed: 7})
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
		{"past-chaos -resilience -seed 7", func() (string, error) {
			r, err := RunSoak(SoakConfig{Seed: 7, Resilience: true})
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
		{"past-chaos -seed 7 (report)", func() (string, error) {
			return soakReportDigest(SoakConfig{Seed: 7})
		}},
		{"past-chaos -resilience -seed 7 (report)", func() (string, error) {
			return soakReportDigest(SoakConfig{Seed: 7, Resilience: true})
		}},
		{"past-load -sim -check -seed 1 -nodes 10 -node-rate 20 -requests 1500", func() (string, error) {
			r, err := RunOverload(OverloadConfig{
				Nodes: 10, NodeRate: 20, Burst: 4, Depth: 8,
				Requests: 1500, Workload: pastLoadWorkload, HopLatency: time.Millisecond,
				SLO: 500 * time.Millisecond, Seed: 1,
			})
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
		{"past-load -sim -seed 1 -nodes 10 -node-rate 20 -rate 400 -requests 1500", func() (string, error) {
			r, err := loadgen.RunSim(pastLoadSim(10, 20, 400, 1500))
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
		{"past-chaos -ec-durability", func() (string, error) {
			r, err := RunECDurability(ECDurabilityConfig{Seed: 1})
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
		{"past-load -sim -ec 4,2 -requests 500", func() (string, error) {
			sc := pastLoadSim(25, 100, 200, 500)
			p, err := ec.ParseParams("4,2")
			if err != nil {
				return "", err
			}
			sc.EC = &p
			r, err := loadgen.RunSim(sc)
			if err != nil {
				return "", err
			}
			return r.Fingerprint, nil
		}},
	}

	var got strings.Builder
	for _, row := range rows {
		fp, err := row.run()
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
