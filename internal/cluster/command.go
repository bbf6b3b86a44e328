// Package cluster boots and supervises a fleet of REAL pastd processes
// on loopback — separate address spaces, real TCP between them, real
// signals killing them — and drives the same invariant checks against
// the live fleet that internal/chaos enforces against the emulator.
// It is the harness that promotes the robustness stack (crash recovery,
// admission control, cache persistence) from emulated to end-to-end
// verified: a fault here is SIGKILL delivered to a process whose
// logstore then has to recover from disk, not a dropped message in a
// simulated network.
//
// The daemon processes come from self-execution: the hosting executable
// (cmd/past-cluster, or a test binary) re-execs itself with the
// PAST_CLUSTER_DAEMON sentinel in the environment and dispatches into
// internal/daemon.Run before any of its own logic. That gives every
// host a fleet of true pastd subprocesses without a separately built
// binary; pointing Command.Path at a real pastd binary works too.
package cluster

import (
	"os"
)

// DaemonEnv is the environment sentinel that turns an exec of the
// hosting binary into a pastd daemon process.
const DaemonEnv = "PAST_CLUSTER_DAEMON"

// Command describes how to launch one daemon process. Args are
// prepended before the per-node daemon flags; Env entries are appended
// to the inherited environment.
type Command struct {
	Path string
	Args []string
	Env  []string
}

// SelfCommand launches the current executable as the daemon, relying on
// the host calling MaybeRunDaemon first thing in main (or TestMain).
func SelfCommand() (Command, error) {
	exe, err := os.Executable()
	if err != nil {
		return Command{}, err
	}
	return Command{Path: exe, Env: []string{DaemonEnv + "=1"}}, nil
}

// MaybeRunDaemon checks the sentinel and, in a child, runs the daemon
// and exits with its code; in the parent it returns immediately. run is
// internal/daemon.Run, passed in by the host to keep this package free
// of the daemon's dependency tree. Call it before flag parsing:
//
//	func main() {
//		cluster.MaybeRunDaemon(daemon.Run)
//		...
//	}
func MaybeRunDaemon(run func(args []string) int) {
	if os.Getenv(DaemonEnv) == "" {
		return
	}
	os.Exit(run(os.Args[1:]))
}
