package chaos

import (
	"context"
	"errors"
	"strings"
	"testing"

	"past/internal/id"
	"past/internal/netsim"
	"past/internal/topology"
)

type echo struct{ delivered int }

func (e *echo) Deliver(from id.Node, msg any) (any, error) {
	e.delivered++
	return msg, nil
}

// rig is a tiny emulated network of n nodes bound to one chaos core.
type rig struct {
	net   *netsim.Network
	core  *Core
	nodes []id.Node
	views []*Net
	eps   []*echo
}

func newRig(t *testing.T, n int, sched Schedule) *rig {
	t.Helper()
	r := &rig{net: netsim.New(), core: NewCore(sched)}
	for i := 0; i < n; i++ {
		nid := id.NodeFromUint64(uint64(i + 1))
		ep := &echo{}
		r.net.Register(nid, topology.Point{X: float64(i)}, ep)
		r.nodes = append(r.nodes, nid)
		r.views = append(r.views, r.core.Bind(nid, r.net))
		r.eps = append(r.eps, ep)
	}
	r.core.SetActive(true)
	return r
}

func TestInactivePassThrough(t *testing.T) {
	r := newRig(t, 2, Schedule{Links: []LinkRule{{Drop: 1}}})
	r.core.SetActive(false)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err != nil {
		t.Fatalf("inactive core must pass through: %v", err)
	}
	if r.core.EventCount() != 0 {
		t.Fatal("inactive core injected faults")
	}
}

func TestDropLooksLikeTimeout(t *testing.T) {
	r := newRig(t, 2, Schedule{Links: []LinkRule{{Drop: 1}}})
	_, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x")
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("dropped message must map to ErrTimeout, got %v", err)
	}
	if !netsim.Retryable(err) {
		t.Fatalf("a dropped message must classify as retryable, got %v", err)
	}
	c := r.core.Counters()
	if c[FaultDropRequest]+c[FaultDropReply] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestDropSplitsRequestAndReply(t *testing.T) {
	r := newRig(t, 2, Schedule{Seed: 7, Links: []LinkRule{{Drop: 1}}})
	for i := 0; i < 200; i++ {
		if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err == nil {
			t.Fatal("drop=1 must fail every invoke")
		}
	}
	c := r.core.Counters()
	if c[FaultDropRequest] == 0 || c[FaultDropReply] == 0 {
		t.Fatalf("want both request and reply drops, got %v", c)
	}
	// Reply drops delivered the message; request drops did not.
	if int64(r.eps[1].delivered) != c[FaultDropReply] {
		t.Fatalf("delivered %d, reply drops %d", r.eps[1].delivered, c[FaultDropReply])
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	r := newRig(t, 2, Schedule{Links: []LinkRule{{Dup: 1}}})
	reply, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x")
	if err != nil || reply != "x" {
		t.Fatalf("dup must still return the first reply: %v %v", reply, err)
	}
	if r.eps[1].delivered != 2 {
		t.Fatalf("delivered %d times; want 2", r.eps[1].delivered)
	}
}

func TestAsymmetricPartition(t *testing.T) {
	sched := Schedule{Partitions: []PartitionRule{{
		Window: Window{From: 0, Until: 10}, A: []int{0}, B: []int{1},
	}}}
	r := newRig(t, 3, sched)
	// A -> B blocked.
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); !errors.Is(err, netsim.ErrNodeDown) {
		t.Fatalf("A->B must be partitioned, got %v", err)
	}
	// B -> A open (asymmetric).
	if _, err := r.views[1].Invoke(context.Background(), r.nodes[1], r.nodes[0], "x"); err != nil {
		t.Fatalf("B->A must pass: %v", err)
	}
	// Third parties unaffected.
	if _, err := r.views[2].Invoke(context.Background(), r.nodes[2], r.nodes[0], "x"); err != nil {
		t.Fatalf("C->A must pass: %v", err)
	}
	// Alive answers from the caller's side.
	if r.views[0].Alive(r.nodes[1]) {
		t.Fatal("A must see B as down")
	}
	if !r.views[1].Alive(r.nodes[0]) {
		t.Fatal("B must see A as up")
	}
	// The partition expires with its window.
	r.core.SetTick(10)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err != nil {
		t.Fatalf("partition must lift at tick 10: %v", err)
	}
}

func TestSymmetricPartition(t *testing.T) {
	sched := Schedule{Partitions: []PartitionRule{{
		A: []int{0}, B: []int{1}, Symmetric: true,
	}}}
	r := newRig(t, 2, sched)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err == nil {
		t.Fatal("A->B must be blocked")
	}
	if _, err := r.views[1].Invoke(context.Background(), r.nodes[1], r.nodes[0], "x"); err == nil {
		t.Fatal("B->A must be blocked (symmetric)")
	}
}

func TestDelayAndSlowNodesAccumulateVirtualTime(t *testing.T) {
	sched := Schedule{
		Links: []LinkRule{{From: []int{0}, To: []int{1}, DelayMS: 10}},
		Slow:  []SlowRule{{Nodes: []int{2}, DelayMS: 50}},
	}
	r := newRig(t, 3, sched)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[2], "x"); err != nil { // to a slow node
		t.Fatal(err)
	}
	if _, err := r.views[2].Invoke(context.Background(), r.nodes[2], r.nodes[0], "x"); err != nil { // from a slow node
		t.Fatal(err)
	}
	if r.core.Counters()[FaultDelay] != 3 {
		t.Fatalf("delay count = %v", r.core.Counters())
	}
}

func TestWindowGatesRules(t *testing.T) {
	sched := Schedule{Links: []LinkRule{{Window: Window{From: 5, Until: 6}, Drop: 1}}}
	r := newRig(t, 2, sched)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err != nil {
		t.Fatalf("tick 0 is outside the window: %v", err)
	}
	r.core.SetTick(5)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err == nil {
		t.Fatal("tick 5 is inside the window")
	}
	r.core.SetTick(6)
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err != nil {
		t.Fatalf("tick 6 is past the window: %v", err)
	}
}

func TestFaultsCompose(t *testing.T) {
	// One schedule expressing a partition, a lossy link, and a churn
	// script simultaneously — the composability requirement.
	sched := Schedule{
		Seed:       3,
		Links:      []LinkRule{{Drop: 0.5}},
		Partitions: []PartitionRule{{A: []int{0}, B: []int{2}, Symmetric: true}},
		Churn: []ChurnEvent{
			{At: 1, Fail: []int{3}},
			{At: 2, Recover: []int{3}},
		},
	}
	r := newRig(t, 4, sched)
	fail, rec := sched.ChurnAt(1)
	if len(fail) != 1 || fail[0] != 3 || len(rec) != 0 {
		t.Fatalf("ChurnAt(1) = %v %v", fail, rec)
	}
	if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[2], "x"); err == nil {
		t.Fatal("partition must block despite other rules")
	}
	drops := 0
	for i := 0; i < 100; i++ {
		if _, err := r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x"); err != nil {
			drops++
		}
	}
	if drops == 0 || drops == 100 {
		t.Fatalf("drop=0.5 gave %d/100 drops", drops)
	}
	if sched.End() != 3 {
		t.Fatalf("End() = %d; want 3", sched.End())
	}
}

func TestDeterministicFingerprint(t *testing.T) {
	sched := Schedule{Seed: 42, Links: []LinkRule{{Drop: 0.3, Dup: 0.2, DelayMS: 5}}}
	// The fingerprint digests every event in order, so equal
	// fingerprints and counts mean equal fault timelines.
	run := func() (string, int64) {
		r := newRig(t, 3, sched)
		for i := 0; i < 300; i++ {
			src, dst := i%3, (i+1)%3
			r.core.SetTick(i / 50)
			_, _ = r.views[src].Invoke(context.Background(), r.nodes[src], r.nodes[dst], "probe")
		}
		r.core.RecordChurn(FaultFail, r.nodes[1])
		r.core.RecordChurn(FaultRecover, r.nodes[1])
		return r.core.Fingerprint(), r.core.EventCount()
	}
	fp1, n1 := run()
	fp2, n2 := run()
	if fp1 != fp2 {
		t.Fatalf("same schedule+seed produced different fingerprints:\n%s\n%s", fp1, fp2)
	}
	if n1 != n2 || n1 < 2 {
		t.Fatalf("event counts %d vs %d", n1, n2)
	}
	// A different seed must change the timeline.
	sched2 := sched
	sched2.Seed = 43
	r := newRig(t, 3, sched2)
	for i := 0; i < 300; i++ {
		src, dst := i%3, (i+1)%3
		r.core.SetTick(i / 50)
		_, _ = r.views[src].Invoke(context.Background(), r.nodes[src], r.nodes[dst], "probe")
	}
	r.core.RecordChurn(FaultFail, r.nodes[1])
	r.core.RecordChurn(FaultRecover, r.nodes[1])
	if r.core.Fingerprint() == fp1 {
		t.Fatal("different seed produced an identical fingerprint")
	}
}

func TestOnFaultHookFires(t *testing.T) {
	r := newRig(t, 2, Schedule{Links: []LinkRule{{Drop: 1}}})
	var kinds []string
	r.core.OnFault = func(kind string) { kinds = append(kinds, kind) }
	_, _ = r.views[0].Invoke(context.Background(), r.nodes[0], r.nodes[1], "x")
	if len(kinds) != 1 || !strings.HasPrefix(kinds[0], "drop-") {
		t.Fatalf("hook saw %v", kinds)
	}
}

func TestRosterAndUnboundNodes(t *testing.T) {
	// Explicit-index rules must not match nodes that were never bound
	// (e.g. external clients); nil selectors match everyone.
	sched := Schedule{Links: []LinkRule{{From: []int{0}, To: []int{1}, Drop: 1}}}
	r := newRig(t, 2, sched)
	if got := r.core.Len(); got != 2 {
		t.Fatalf("roster length %d", got)
	}
	if nid, ok := r.core.NodeAt(1); !ok || nid != r.nodes[1] {
		t.Fatalf("NodeAt(1) = %v %v", nid, ok)
	}
	if _, ok := r.core.NodeAt(9); ok {
		t.Fatal("NodeAt out of range must report false")
	}
	stranger := id.NodeFromUint64(99)
	r.net.Register(stranger, topology.Point{}, &echo{})
	view := r.core.Bind(stranger, r.net) // binding appends to the roster
	if got := r.core.Len(); got != 3 {
		t.Fatalf("roster length after bind %d", got)
	}
	// stranger (index 2) is not matched by the {0}->{1} rule.
	if _, err := view.Invoke(context.Background(), stranger, r.nodes[1], "x"); err != nil {
		t.Fatalf("rule must not match unrelated nodes: %v", err)
	}
}
