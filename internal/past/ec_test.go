package past

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"past/internal/cache"
	"past/internal/chaos"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/obs"
	"past/internal/store"
)

func newECCluster(t *testing.T, n int, p ec.Params, budget int64, mods ...func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K = 3
	cfg.ECMode = &p
	cfg.ECRepairBudget = budget
	for _, mod := range mods {
		mod(&cfg)
	}
	c, err := NewCluster(ClusterSpec{
		N:        n,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return 4 << 20 },
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fragHolderNode returns a live node holding a fragment of f.
func fragHolderNode(c *Cluster, f id.File) *Node {
	for _, nid := range c.Net.AliveNodes() {
		if n := c.ByID[nid]; len(fragsOf(n, f)) > 0 {
			return n
		}
	}
	return nil
}

func TestECInsertLookupRoundTrip(t *testing.T) {
	c := newECCluster(t, 10, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(5))

	var files []id.File
	contents := make(map[id.File][]byte)
	for i := 0; i < 5; i++ {
		content := make([]byte, 3000+rng.Intn(5000))
		rng.Read(content)
		res, err := c.RandomAliveNode().Insert(InsertSpec{Name: fmt.Sprintf("ec-%d", i), Content: content})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %+v, %v", i, res, err)
		}
		files = append(files, res.FileID)
		contents[res.FileID] = content
	}

	// Every lookup must reconstruct the original bytes.
	for _, f := range files {
		res, err := c.RandomAliveNode().Lookup(f)
		if err != nil || !res.Found {
			t.Fatalf("lookup %s: %+v, %v", f.Short(), res, err)
		}
		if !bytes.Equal(res.Content, contents[f]) {
			t.Fatalf("lookup %s: content mismatch", f.Short())
		}
	}

	// The fragment invariant must hold from the start: all m+n indices
	// on live nodes, every object reconstructible.
	ck := &chaos.Checker{K: 3}
	if v := ck.CheckDurability(c.Census(files), 0); len(v) != 0 {
		t.Fatalf("durability violations on a healthy cluster: %v", v)
	}
	if v := ck.CheckConverged(c.Census(files), 0); len(v) != 0 {
		t.Fatalf("convergence violations on a healthy cluster: %v", v)
	}

	// Coding parameters are visible to the checker.
	cen := c.Census(files[:1])
	data, total, ok := cen.Shape(0)
	if !ok || data != 3 || total != 5 {
		t.Fatalf("Shape = (%d, %d, %v), want (3, 5, true)", data, total, ok)
	}
	if got := len(cen.Fragments(0)); got != 5 {
		t.Fatalf("fragment indices live = %d, want 5", got)
	}
}

func TestECLookupDegradesGracefully(t *testing.T) {
	c := newECCluster(t, 12, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(6))
	content := make([]byte, 6000)
	rng.Read(content)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "degrade", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	// Drop parity-many fragments outright (no repair chance: delete the
	// fragments rather than the nodes, so maintenance sees live holders
	// and the lookup must hedge past the gaps).
	dropped := 0
	for _, n := range c.Nodes {
		if dropped >= 2 {
			break
		}
		for _, idx := range fragsOf(n, f) {
			n.frags.Delete(f, idx)
			dropped++
		}
	}
	if dropped != 2 {
		t.Fatalf("dropped %d fragments, want 2", dropped)
	}
	lr, err := c.RandomAliveNode().Lookup(f)
	if err != nil || !lr.Found || !bytes.Equal(lr.Content, content) {
		t.Fatalf("lookup with m survivors failed: %+v, %v", lr, err)
	}
}

func TestECLazyRepairAfterFailure(t *testing.T) {
	c := newECCluster(t, 12, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(7))
	content := make([]byte, 9000)
	rng.Read(content)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "repair-me", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	// Kill a fragment holder. Its fragment is unreachable; anti-entropy
	// must enqueue it and repair must re-place it on a live node.
	victim := fragHolderNode(c, f)
	if victim == nil {
		t.Fatal("no fragment holder found")
	}
	c.Fail(victim.ID())
	for i := 0; i < 3; i++ {
		c.MaintainAll()
	}

	ck := &chaos.Checker{K: 3}
	if v := ck.CheckConverged(c.Census([]id.File{f}), 1); len(v) != 0 {
		t.Fatalf("violations after repair: %v", v)
	}
	lr, err := c.RandomAliveNode().Lookup(f)
	if err != nil || !lr.Found || !bytes.Equal(lr.Content, content) {
		t.Fatalf("lookup after repair: %+v, %v", lr, err)
	}

	// Some live node must have performed the repair.
	var repaired int64
	for _, nid := range c.Net.AliveNodes() {
		snap := c.ByID[nid].StatsSnapshot()
		repaired += snap.Get("ec_repairs_done_total")
	}
	if repaired == 0 {
		t.Fatal("no repairs recorded")
	}
}

func TestECRepairCorruptFragment(t *testing.T) {
	c := newECCluster(t, 12, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(8))
	content := make([]byte, 5000)
	rng.Read(content)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "corrupt-me", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	holder := fragHolderNode(c, f)
	idx := fragsOf(holder, f)[0]
	if !corruptFragment(holder.frags, f, idx, 0) {
		t.Fatal("corruption injection failed")
	}
	for i := 0; i < 3; i++ {
		c.MaintainAll()
	}

	// The CRC failure was detected and the fragment re-created.
	ck := &chaos.Checker{K: 3}
	if v := ck.CheckConverged(c.Census([]id.File{f}), 1); len(v) != 0 {
		t.Fatalf("violations after corrupt-fragment repair: %v", v)
	}
	if holder.frags.CRCFailures() == 0 {
		t.Fatal("corruption was never detected")
	}
	lr, err := c.RandomAliveNode().Lookup(f)
	if err != nil || !lr.Found || !bytes.Equal(lr.Content, content) {
		t.Fatalf("lookup after corruption repair: %+v, %v", lr, err)
	}
}

// corruptFragment flips bit `bit` (bit%8 of byte bit/8) of a stored
// fragment's payload and keeps its CRC, as a fault on the holder's disk
// would. The payload is shared (see ec.FragStore.Put), so the holder
// gets a corrupted copy and every other holder of the bytes keeps the
// original. It reports false if there is no such fragment or bit.
func corruptFragment(s *ec.FragStore, f id.File, idx, bit int) bool {
	fr, ok := s.Get(f, idx)
	if !ok || bit < 0 || bit >= 8*len(fr.Data) {
		return false
	}
	fr.Data = bytes.Clone(fr.Data)
	fr.Data[bit/8] ^= 1 << (bit % 8)
	s.Put(fr)
	return true
}

// TestECCacheGrantExcludesFragments: the cache lives in the space that
// neither replicas nor fragments occupy, so every site that re-grants
// it — a replica stored, refused or dropped as much as a fragment
// stored or dropped — leaves the fragment bytes out.
func TestECCacheGrantExcludesFragments(t *testing.T) {
	c := newECCluster(t, 10, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 20; i++ {
		content := make([]byte, 2000+rng.Intn(6000))
		rng.Read(content)
		if res, err := c.RandomAliveNode().Insert(InsertSpec{Name: fmt.Sprintf("grant-%d", i), Content: content}); err != nil || !res.OK {
			t.Fatalf("insert %d: %+v, %v", i, res, err)
		}
	}
	// space is what the cache should be granted: the store's free space
	// less the fragments. granted probes the limit the cache holds: with
	// c = 1 it takes a file one byte under its limit and refuses one of
	// exactly its limit. The probe evicts, so it runs after every check
	// of what the cache holds, and leaves the cache empty.
	space := func(n *Node) int64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.store.Free() - n.FragBytes()
	}
	granted := func(n *Node, limit int64) bool {
		probe := id.NewFile("grant-probe", nil, 0)
		n.mu.Lock()
		defer n.mu.Unlock()
		defer n.cache.Remove(probe)
		return !n.cache.Insert(probe, limit, nil) && n.cache.Insert(probe, limit-1, nil)
	}
	var pinned *Node
	for _, n := range c.Nodes {
		if want := space(n); !granted(n, want) {
			t.Errorf("node %s: cache not granted store free %d less fragments %d",
				n.ID().Short(), want+n.FragBytes(), n.FragBytes())
		}
		if pinned == nil && n.FragBytes() > 0 {
			pinned = n
		}
	}
	if pinned == nil {
		t.Fatal("no node holds a fragment")
	}

	// Fill the pinned node's GD-S cache to the brim, then store, refuse
	// and drop a replica under it.
	ca := pinned.Cache()
	for i := uint64(0); ca.Used() <= space(pinned)-(64<<10); i++ {
		ca.Insert(id.NewFile("cached", nil, i), 64<<10, nil)
	}
	replica := store.Entry{File: id.NewFile("replica", nil, 1), Size: 100 << 10, Kind: store.Primary}
	pinned.mu.Lock()
	err := pinned.addReplicaLocked(replica)
	pinned.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if want := space(pinned); ca.Used() > want || !granted(pinned, want) {
		t.Fatalf("after a replica add: used %d; want limit %d", ca.Used(), want)
	}
	before := space(pinned)
	huge := store.Entry{File: id.NewFile("replica", nil, 2), Size: pinned.Capacity(), Kind: store.Primary}
	pinned.mu.Lock()
	err = pinned.addReplicaLocked(huge)
	pinned.mu.Unlock()
	if err == nil {
		t.Fatal("the store accepted a replica the size of its capacity")
	}
	if !granted(pinned, before) {
		t.Fatalf("a refused replica changed the cache's grant from the %d before it", before)
	}
	pinned.mu.Lock()
	_, ok := pinned.removeReplicaLocked(replica.File)
	pinned.mu.Unlock()
	if want := space(pinned); !ok || !granted(pinned, want) {
		t.Fatalf("after a replica drop: limit not %d (dropped %v)", want, ok)
	}
}

// TestECForgedShardSizeAllocatesNothing: map updates are unauthenticated,
// so any peer can replace a fragment map with a newer version claiming a
// gigabyte shard. With a data fragment missing, a lookup (and the repair
// maintenance schedules) must then fail on the fetched fragments' size —
// not allocate the claimed shard first and fail after.
func TestECForgedShardSizeAllocatesNothing(t *testing.T) {
	c := newECCluster(t, 12, ec.Params{Data: 4, Parity: 2}, 0, func(cfg *Config) { cfg.CachePolicy = cache.None })
	rng := rand.New(rand.NewSource(10))
	content := make([]byte, 8000)
	rng.Read(content)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "forge-me", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	heldMap := func(n *Node) (*ec.Map, bool) {
		n.mu.Lock()
		e, ok := n.store.Get(f)
		n.mu.Unlock()
		if !ok {
			return nil, false
		}
		fmap, err := ec.DecodeMap(e.Content)
		if err != nil {
			t.Fatal(err)
		}
		return fmap, true
	}
	forger := c.Nodes[0]
	forged := 0
	for _, n := range c.Nodes {
		fmap, ok := heldMap(n)
		if !ok {
			continue
		}
		// DecodeMap holds ShardSize to ceil(Size/Data), so the forger
		// claims an object to match.
		fmap.ShardSize = 1 << 30
		fmap.Size = int64(fmap.ShardSize) * int64(fmap.Data)
		fmap.Version++
		if _, err := forger.net.Invoke(context.Background(), forger.ID(), n.ID(), &mapUpdateMsg{Raw: fmap.Encode()}); err != nil {
			t.Fatal(err)
		}
		if fmap, _ := heldMap(n); fmap.ShardSize != 1<<30 {
			t.Fatalf("forged map not installed at %s", n.ID().Short())
		}
		forged++
	}
	if forged == 0 {
		t.Fatal("no map holder found")
	}
	dropped := false
	for _, n := range c.Nodes {
		if slices.Contains(fragsOf(n, f), 0) {
			n.frags.Delete(f, 0)
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("data fragment 0 not found")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lr, err := c.RandomAliveNode().Lookup(f)
	c.MaintainAll()
	runtime.ReadMemStats(&after)
	if err == nil && lr.Found {
		t.Fatalf("lookup through a forged map succeeded: %+v", lr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("lookup and repair through a forged map allocated %d MiB", grew>>20)
	}
}

func TestECFragmentLossInvariantFires(t *testing.T) {
	c := newECCluster(t, 10, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(9))
	content := make([]byte, 4000)
	rng.Read(content)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "lose-me", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	// Delete fragments until fewer than m distinct indices remain; the
	// checker must call the object lost even while map replicas survive.
	deleted := 0
	for _, n := range c.Nodes {
		for _, idx := range fragsOf(n, f) {
			if deleted < 3 {
				n.frags.Delete(f, idx)
				deleted++
			}
		}
	}
	if deleted != 3 {
		t.Fatalf("deleted %d fragments, want 3", deleted)
	}
	ck := &chaos.Checker{K: 3}
	v := ck.CheckDurability(c.Census([]id.File{f}), 0)
	found := false
	for _, viol := range v {
		if viol.Kind == chaos.ViolationFragmentsLost {
			found = true
		}
	}
	if !found {
		t.Fatalf("fragment-loss violation not raised: %v", v)
	}
}

func TestECReclaimDropsFragments(t *testing.T) {
	c := newECCluster(t, 10, ec.Params{Data: 3, Parity: 2}, 0)
	rng := rand.New(rand.NewSource(10))
	content := make([]byte, 4500)
	rng.Read(content)
	ap := c.RandomAliveNode()
	res, err := ap.Insert(InsertSpec{Name: "reclaim-me", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID
	if _, err := ap.Reclaim(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Census([]id.File{f}).Fragments(0)); got != 0 {
		t.Fatalf("%d fragment indices survive reclaim", got)
	}
}

// TestECPropertyOnTheNode checks internal/rs's coding properties end to
// end, through lookups on an rs(4,2) cluster: with any two of the six
// fragments deleted — all 15 choices — the lookup returns the content
// bit-identically; with one bit flipped in any one fragment, the lookup
// catches it by its CRC, drops it, counts exactly one CRC failure, and
// still returns the content.
func TestECPropertyOnTheNode(t *testing.T) {
	p := ec.Params{Data: 4, Parity: 2}
	// k = m+n puts a map replica on every fragment holder, so a lookup
	// started at a holder reconstructs there, local fragment first.
	c := newECCluster(t, 12, p, 0, func(cfg *Config) {
		cfg.K = p.Total()
		cfg.CachePolicy = cache.None
	})
	rng := rand.New(rand.NewSource(11))
	content := make([]byte, 40<<10+123) // not shard-aligned
	rng.Read(content)
	res, err := c.RandomAliveNode().Insert(InsertSpec{Name: "property", Content: content})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	f := res.FileID

	holder := make([]*Node, p.Total())
	saved := make([]ec.Fragment, p.Total())
	for _, n := range c.Nodes {
		for _, idx := range fragsOf(n, f) {
			holder[idx] = n
			saved[idx], _ = n.frags.Get(f, idx)
		}
	}
	for idx, h := range holder {
		if h == nil || !h.HasReplica(f) {
			t.Fatalf("fragment %d has no holder that also holds the map", idx)
		}
	}
	restore := func() {
		for idx, h := range holder {
			h.frags.Put(saved[idx])
		}
	}
	lookup := func(at *Node, what string) {
		t.Helper()
		lr, err := at.Lookup(f)
		if err != nil || !lr.Found || !bytes.Equal(lr.Content, content) {
			t.Fatalf("%s: lookup did not return the content (%v)", what, err)
		}
	}

	subsets := 0
	for a := 0; a < p.Total(); a++ {
		for b := a + 1; b < p.Total(); b++ {
			holder[a].frags.Delete(f, a)
			holder[b].frags.Delete(f, b)
			lookup(c.RandomAliveNode(), fmt.Sprintf("fragments %d and %d deleted", a, b))
			restore()
			subsets++
		}
	}
	if subsets != 15 {
		t.Fatalf("tried %d four-holder subsets, want 15", subsets)
	}

	crcFailures := func() (sum int64) {
		for _, n := range c.Nodes {
			sum += n.StatsSnapshot().Get(obs.CtrECCRCFailures)
		}
		return sum
	}
	for idx, h := range holder {
		before := crcFailures()
		if !corruptFragment(h.frags, f, idx, rng.Intn(8*len(saved[idx].Data))) {
			t.Fatalf("fragment %d: corruption injection failed", idx)
		}
		lookup(h, fmt.Sprintf("fragment %d bit-flipped", idx))
		if got := crcFailures() - before; got != 1 {
			t.Fatalf("fragment %d bit-flipped: %d CRC failures counted, want 1", idx, got)
		}
		if slices.Contains(fragsOf(h, f), idx) {
			t.Fatalf("fragment %d bit-flipped: the corrupt copy was not dropped", idx)
		}
		restore()
	}
}
