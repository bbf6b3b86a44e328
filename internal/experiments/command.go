package experiments

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"past/internal/admit"
	"past/internal/chaos"
)

// ChaosCommand is one past-chaos command line: the run it describes and
// the mode that runs it.
type ChaosCommand struct {
	// Mode is "soak", "compare", "ec-durability", "crash" or
	// "check-events", after the flag that selects it; no such flag
	// selects the soak.
	Mode string
	// Soak is the network soak, and -compare's pair: past-chaos's flags
	// bind straight into it, starting from DefaultSoakConfig.
	Soak SoakConfig
	// EC is the erasure-coding sweep of -ec-durability.
	EC ECDurabilityConfig
	// Crash is the storage crash soak; Keep retains its directory.
	Crash chaos.CrashConfig
	Keep  bool
	// Verify reruns the soak or the sweep and requires the same
	// fingerprint.
	Verify bool
	// EventsOut receives the soak's JSONL event stream ("" for none);
	// CheckEvents is the stream -check-events reads.
	EventsOut, CheckEvents string
}

// The soak's admission controller, when -admit-rate turns it on.
const admitBurst, admitDepth = 4, 8

// chaosReads lists, per mode, the flags that mode reads. Setting any
// other is refused, not ignored: -compare sets the resilience layer
// itself and reruns nothing, and the sweep, the crash soak and the
// event check build no network soak.
var chaosReads = map[string]string{
	"soak":          "seed nodes files ticks drop verify resilience trace events-out admit-rate",
	"compare":       "compare seed nodes files ticks drop trace events-out admit-rate",
	"ec-durability": "ec-durability seed verify",
	"crash":         "crash seed crash-lives crash-ops crash-dir keep",
	"check-events":  "check-events",
}

// ParseChaosCommand binds past-chaos's flags (args without the program
// name) and picks the mode they select. Usage and flag errors go to
// out. A flag the selected mode would not read is an error naming it.
func ParseChaosCommand(args []string, out io.Writer) (ChaosCommand, error) {
	c := ChaosCommand{Soak: DefaultSoakConfig(), Crash: chaos.CrashConfig{Lives: 5, OpsPer: 200}}
	sc := &c.Soak

	fs := flag.NewFlagSet("past-chaos", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.IntVar(&sc.Nodes, "nodes", sc.Nodes, "cluster size")
	fs.IntVar(&sc.Files, "files", sc.Files, "files to insert before the faults start")
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "schedule seed")
	fs.IntVar(&sc.Ticks, "ticks", sc.Ticks, "fault-phase length in virtual ticks")
	fs.Float64Var(&sc.Drop, "drop", sc.Drop, "per-message drop probability")
	fs.BoolVar(&c.Verify, "verify", false, "run the soak or the -ec-durability sweep twice and require identical fingerprints")
	fs.BoolVar(&sc.Resilience, "resilience", false, "enable the resilience layer: per-hop reroute around dead next hops, and partial inserts (off: fail-fast routing)")
	compare := fs.Bool("compare", false, "run the schedule with the resilience layer off and on and compare")
	fs.IntVar(&sc.TraceEvery, "trace", 0, "sample every Nth client operation for a per-hop route trace (0: off)")
	fs.StringVar(&c.EventsOut, "events-out", "", "write the structured JSONL event stream to this file")
	fs.StringVar(&c.CheckEvents, "check-events", "", "validate a JSONL event stream and print a summary (no soak runs)")

	admitRate := fs.Float64("admit-rate", 0, "put every node behind admission control at this rate in req/s (burst 4, queue depth 8); rejections become \"overload\" events (0: off)")

	ecDur := fs.Bool("ec-durability", false, "run the erasure-coding repair-vs-durability sweep instead of the network soak")

	crash := fs.Bool("crash", false, "run the storage crash soak instead of the network soak")
	fs.IntVar(&c.Crash.Lives, "crash-lives", c.Crash.Lives, "crash soak: kill/recover cycles")
	fs.IntVar(&c.Crash.OpsPer, "crash-ops", c.Crash.OpsPer, "crash soak: mutations per life")
	fs.StringVar(&c.Crash.Dir, "crash-dir", "", "crash soak: logstore directory (empty: a fresh temp dir)")
	fs.BoolVar(&c.Keep, "keep", false, "crash soak: keep the store directory for inspection (e.g. pastctl fsck)")

	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case *ecDur:
		c.Mode = "ec-durability"
	case *crash:
		c.Mode = "crash"
	case c.CheckEvents != "":
		c.Mode = "check-events"
	case *compare:
		c.Mode = "compare"
	default:
		c.Mode = "soak"
	}

	reads := strings.Fields(chaosReads[c.Mode])
	var refused []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			refused = append(refused, "-"+f.Name)
		}
	})
	if len(refused) > 0 {
		return c, fmt.Errorf("%s: not read by %s runs", strings.Join(refused, " "), c.Mode)
	}

	if *admitRate > 0 {
		sc.Admit = &admit.Config{Rate: *admitRate, Burst: admitBurst, Depth: admitDepth}
	}
	c.EC.Seed = sc.Seed
	c.Crash.Seed = sc.Seed
	return c, nil
}
