// Package chaos is a deterministic fault-injection layer for the PAST
// network. It wraps any netsim.Net — the in-process emulation or the TCP
// transport — and applies a seeded fault schedule: message drops (of the
// request or of the reply), virtual message delay, message duplication,
// asymmetric network partitions, slow nodes, and scripted crash/recovery
// timelines. All randomness flows from the schedule's single seed, so a
// given schedule reproduces byte-identical fault timelines run after run
// (the Core keeps a running fingerprint to prove it).
//
// Time is virtual: the driver advances a tick counter and the schedule's
// windows are expressed in ticks, exactly like the maintenance "rounds"
// the rest of the emulation uses. The package also provides the
// invariant checker the paper's durability claims are tested against:
// every confirmed insert keeps at least one reachable replica, replica
// counts converge back to k after repair, and no node retains primary
// replicas it no longer owns once the leaf sets heal.
package chaos

import (
	"sort"
	"strconv"
)

// Window is a half-open tick interval [From, Until) during which a rule
// is active. Until <= 0 means the rule never expires.
type Window struct {
	From, Until int
}

// Contains reports whether tick t falls inside the window.
func (w Window) Contains(t int) bool {
	if t < w.From {
		return false
	}
	return w.Until <= 0 || t < w.Until
}

// Rules identify nodes by roster index — the order in which nodes were
// bound to the Core, which for a past.Cluster is the build order. A nil
// index slice matches every node (including nodes never bound, such as
// pure clients).

// LinkRule applies stochastic faults to messages from a From node to a
// To node while its window is active.
type LinkRule struct {
	Window
	From, To []int
	// Drop is the probability a message is lost. Half of the losses
	// remove the request (the destination never sees it), half remove
	// the reply (the destination acted, the sender sees a failure) —
	// the distinction that flushes out non-idempotent handlers.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// DelayMS, when positive, delays every matching message: the
	// emulator still delivers at once and counts a FaultDelay.
	DelayMS int
}

// SlowRule charges extra virtual latency on every message to or from
// the listed nodes — the emulated "slow node".
type SlowRule struct {
	Window
	Nodes   []int
	DelayMS int
}

// PartitionRule blocks all messages from group A to group B while
// active. The block is asymmetric unless Symmetric is set, which also
// blocks B to A.
type PartitionRule struct {
	Window
	A, B      []int
	Symmetric bool
}

// ChurnEvent is one scripted step of a crash/recovery timeline. The
// driver executes it when its tick is reached: Fail nodes are marked
// down (keeping their disks), Recover nodes come back and rejoin.
type ChurnEvent struct {
	At            int
	Fail, Recover []int
}

// Schedule is a complete composed fault scenario: any number of link
// rules, slow nodes, partitions, and churn steps, all driven by one
// seed.
type Schedule struct {
	Seed       int64
	Links      []LinkRule
	Slow       []SlowRule
	Partitions []PartitionRule
	Churn      []ChurnEvent
}

// ChurnAt collects the fail and recover lists of every churn event
// scheduled at tick t.
func (s Schedule) ChurnAt(t int) (fail, recover []int) {
	for _, e := range s.Churn {
		if e.At == t {
			fail = append(fail, e.Fail...)
			recover = append(recover, e.Recover...)
		}
	}
	return fail, recover
}

// End returns the first tick at which no rule is active and no churn
// event remains — the natural length of the schedule. Rules with no
// expiry are ignored.
func (s Schedule) End() int {
	end := 0
	up := func(t int) {
		if t > end {
			end = t
		}
	}
	for _, r := range s.Links {
		up(r.Until)
	}
	for _, r := range s.Slow {
		up(r.Until)
	}
	for _, r := range s.Partitions {
		up(r.Until)
	}
	for _, e := range s.Churn {
		up(e.At + 1)
	}
	return end
}

// matches reports whether roster index i is selected by set (nil
// selects everything; an unbound node, index -1, only matches nil).
func matches(set []int, i int) bool {
	if set == nil {
		return true
	}
	if i < 0 {
		return false
	}
	for _, v := range set {
		if v == i {
			return true
		}
	}
	return false
}

// SortedCounters flattens a counter map into a deterministic "k=v"
// list, for rendering and fingerprinting.
func SortedCounters(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k+"="+strconv.FormatInt(m[k], 10))
	}
	return out
}
