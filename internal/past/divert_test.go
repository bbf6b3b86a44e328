package past

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"past/internal/id"
)

// refDivertTarget is the diversion choice chooseDivertTarget replaced,
// kept as the oracle: sort every polled candidate most free space first,
// ties to the smaller id (or keep the given order), then ask each in
// turn.
func refDivertTarget(cands []divertCandidate, mostFree bool, try func(id.Node) (*divertStoreReply, error)) (id.Node, bool) {
	cands = slices.Clone(cands)
	if mostFree {
		slices.SortFunc(cands, func(a, b divertCandidate) int {
			if c := cmp.Compare(b.free, a.free); c != 0 {
				return c
			}
			return a.node.Cmp(b.node)
		})
	}
	for _, c := range cands {
		r, err := try(c.node)
		if err != nil {
			continue
		}
		switch r.Status {
		case divertOK:
			return c.node, true
		case divertAlreadyHolds:
			continue
		case divertNoSpace:
			return id.Node{}, false
		}
	}
	return id.Node{}, false
}

// TestDivertOrderMatchesSort runs seeded random candidate lists — free
// space drawn from a few values so ties are common, and each candidate
// answering the divert store as dead, already holding the file, out of
// space or accepting — through chooseDivertTarget and the sorting
// oracle. Both must ask the same candidates in the same order (so send
// the same divertStore RPCs) and pick the same target, in most-free
// order and in the given order RandomDivert's shuffle leaves.
func TestDivertOrderMatchesSort(t *testing.T) {
	errDead := errors.New("dead")
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		answers := map[id.Node]func() (*divertStoreReply, error){}
		var cands []divertCandidate
		for n := r.Intn(34); len(cands) < n; {
			var node id.Node
			r.Read(node[:])
			var answer func() (*divertStoreReply, error)
			switch x := r.Intn(20); {
			case x < 3:
				answer = func() (*divertStoreReply, error) { return nil, errDead }
			case x < 10:
				answer = func() (*divertStoreReply, error) { return &divertStoreReply{Status: divertAlreadyHolds}, nil }
			case x < 12:
				answer = func() (*divertStoreReply, error) { return &divertStoreReply{Status: divertNoSpace}, nil }
			default:
				answer = func() (*divertStoreReply, error) { return &divertStoreReply{Status: divertOK}, nil }
			}
			answers[node] = answer
			cands = append(cands, divertCandidate{node: node, free: int64(r.Intn(4)) * 1000})
		}
		for _, mostFree := range []bool{true, false} {
			var asked, refAsked []id.Node
			ask := func(log *[]id.Node) func(id.Node) (*divertStoreReply, error) {
				return func(b id.Node) (*divertStoreReply, error) {
					*log = append(*log, b)
					return answers[b]()
				}
			}
			got, ok := chooseDivertTarget(slices.Clone(cands), mostFree, ask(&asked))
			want, wantOK := refDivertTarget(cands, mostFree, ask(&refAsked))
			if got != want || ok != wantOK || !slices.Equal(asked, refAsked) {
				t.Fatalf("trial %d, mostFree=%v: chose %s (%v) after asking %v; the sort chose %s (%v) after asking %v",
					trial, mostFree, got.Short(), ok, short(asked), want.Short(), wantOK, short(refAsked))
			}
		}
	}
}

func short(ns []id.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Short()
	}
	return out
}

// TestAbortedInsertLeavesNoReplica aborts an insert whose coordinator
// diverted its own replica: the last replica-set member has failed, so
// the coordinator discards what the attempt stored. The diverted
// replica must go with the pointer to it; an orphan would outlive the
// client's re-salted retry and count as utilisation for good.
func TestAbortedInsertLeavesNoReplica(t *testing.T) {
	const size = 4000
	c, err := NewCluster(ClusterSpec{
		N: 30, Cfg: smallCfg(), Seed: 3,
		Capacity: func(i int, _ *rand.Rand) int64 {
			if i == 0 {
				return size // tpri refuses the file here, so node 0 diverts it
			}
			return 1 << 20
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := c.Nodes[0]
	var f id.File
	for salt := uint64(1); ; salt++ {
		if f = id.NewFile("abort", nil, salt); c.GlobalClosest(f.Key(), 1)[0] == coord.ID() {
			break
		}
	}
	members := coord.overlay.ReplicaSet(f.Key(), coord.cfg.K)
	if members[0] != coord.ID() {
		t.Fatalf("replica set %v does not start at the coordinator", short(members))
	}
	c.Fail(members[len(members)-1])

	rep := coord.replicateInsert(f.Key(), &InsertMsg{File: f, Size: size, K: coord.cfg.K})
	if rep.OK {
		t.Fatal("insert succeeded although a replica-set member is down")
	}
	for _, n := range c.Nodes {
		if h := n.Holds([]id.File{f})[0]; h.Has || h.HasPtr {
			t.Errorf("node %s still holds the aborted file: replica=%v pointer=%v", n.ID().Short(), h.Has, h.HasPtr)
		}
	}
}
