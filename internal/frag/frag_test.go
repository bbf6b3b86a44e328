package frag

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"past/internal/cache"
	"past/internal/ec"
	"past/internal/id"
	"past/internal/past"
	"past/internal/pastry"
)

func testCluster(t *testing.T, n int, capacity int64, seed int64, mods ...func(*past.Config)) *past.Cluster {
	t.Helper()
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 16}
	cfg.K = 3
	cfg.CachePolicy = cache.None
	for _, mod := range mods {
		mod(&cfg)
	}
	c, err := past.NewCluster(past.ClusterSpec{
		N:        n,
		Cfg:      cfg,
		Capacity: func(int, *rand.Rand) int64 { return capacity },
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rs84 is the coding the coded tests stripe over: every fragment frag
// inserts is rs(8,4)-coded by its root into 12 node-level fragments,
// and lazy repair runs uncapped (budget 0).
var rs84 = ec.Params{Data: 8, Parity: 4}

func codedCluster(t *testing.T, n int, capacity int64, seed int64) *past.Cluster {
	t.Helper()
	return testCluster(t, n, capacity, seed, func(cfg *past.Config) { cfg.ECMode = &rs84 })
}

func randomContent(size int, seed int64) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// manifestOf reads the manifest behind an inserted object.
func manifestOf(t *testing.T, s *Store, manifestID id.File) *manifest {
	t.Helper()
	m, err := s.manifest(manifestID)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// failHolders fails count live nodes holding a fragment of stripe and
// nothing else the test stores — not the access point, no replica (the
// fragment maps and the manifest live in replicas), no fragment of the
// other files — so each failure costs stripe exactly one fragment.
func failHolders(t *testing.T, c *past.Cluster, s *Store, stripe id.File, others []id.File, count int) {
	t.Helper()
	holders := c.Census([]id.File{stripe}).Fragments(0)
	for idx := 0; idx < rs84.Total() && count > 0; idx++ {
	next:
		for _, nid := range holders[idx] {
			n := c.ByID[nid]
			if n == s.node || n.StoredBytes() > 0 {
				continue
			}
			for i, h := range n.Holds(others) {
				if others[i] != stripe && len(h.Frags) > 0 {
					continue next
				}
			}
			c.Fail(nid)
			count--
			break
		}
	}
	if count > 0 {
		t.Fatalf("%d more holders of %s to fail, none eligible", count, stripe.Short())
	}
}

// liveIndices counts the fragment indices of f held on live nodes.
func liveIndices(c *past.Cluster, f id.File) int { return len(c.Census([]id.File{f}).Fragments(0)) }

func TestReplicatedRoundTrip(t *testing.T) {
	c := testCluster(t, 40, 1<<22, 1)
	s, err := NewStore(c.Nodes[0], Options{FragmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	content := randomContent(100_000, 1) // 13 fragments

	res, err := s.Insert("big.bin", content)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments != 13 {
		t.Fatalf("fragments = %d; want 13", res.Fragments)
	}

	// Fetch through a different access point.
	s2, _ := NewStore(c.Nodes[30], Options{FragmentSize: 8 << 10})
	got, err := s2.Fetch(res.ManifestID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("reassembled content mismatch")
	}
}

// TestReedSolomonRoundTrip stripes an object over a coded cluster: each
// stripe is stored as an rs(8,4) object and the whole reassembles
// through another access point.
func TestReedSolomonRoundTrip(t *testing.T) {
	c := codedCluster(t, 40, 1<<22, 2)
	s, err := NewStore(c.Nodes[0], Options{FragmentSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	content := randomContent(77_777, 2)
	res, err := s.Insert("coded.bin", content)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments != 3 {
		t.Fatalf("stripes = %d; want 3", res.Fragments)
	}
	for _, stripe := range manifestOf(t, s, res.ManifestID).FragIDs {
		if data, total, ok := c.Census([]id.File{stripe}).Shape(0); !ok || data != 8 || total != 12 {
			t.Fatalf("stripe %s coded as (%d, %d, %v); want rs(8,4)", stripe.Short(), data, total, ok)
		}
		if got := liveIndices(c, stripe); got != 12 {
			t.Fatalf("stripe %s has %d fragment indices live; want 12", stripe.Short(), got)
		}
	}
	s2, _ := NewStore(c.Nodes[30], Options{})
	got, err := s2.Fetch(res.ManifestID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("reassembled content mismatch")
	}
}

// TestReedSolomonSurvivesFragmentLoss: a coded stripe reassembles with
// parity-many of its fragments gone, and not with one more.
func TestReedSolomonSurvivesFragmentLoss(t *testing.T) {
	c := codedCluster(t, 60, 1<<22, 3)
	s, _ := NewStore(c.Nodes[0], Options{})
	content := randomContent(50_000, 3)
	res, err := s.Insert("lossy.bin", content)
	if err != nil {
		t.Fatal(err)
	}
	stripe := manifestOf(t, s, res.ManifestID).FragIDs[0]
	others := []id.File{res.ManifestID}

	failHolders(t, c, s, stripe, others, rs84.Parity)
	if got := liveIndices(c, stripe); got != rs84.Data {
		t.Fatalf("%d fragments live after losing parity-many; want %d", got, rs84.Data)
	}
	got, err := s.Fetch(res.ManifestID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after losing 4 of 12 fragments")
	}

	// A fifth loss exceeds the parity budget.
	failHolders(t, c, s, stripe, others, 1)
	if _, err := s.Fetch(res.ManifestID); err == nil {
		t.Fatal("fetch must fail with more losses than parity")
	}
}

// TestReedSolomonMultiGroup: every stripe is coded on its own, so each
// absorbs its own parity-many losses even when the object as a whole
// has lost more fragments than one stripe's parity.
func TestReedSolomonMultiGroup(t *testing.T) {
	c := codedCluster(t, 80, 1<<23, 11)
	s, _ := NewStore(c.Nodes[0], Options{FragmentSize: 16 << 10})
	content := randomContent(70_000, 11) // 5 stripes
	res, err := s.Insert("multi.bin", content)
	if err != nil {
		t.Fatal(err)
	}
	m := manifestOf(t, s, res.ManifestID)
	if len(m.FragIDs) != 5 {
		t.Fatalf("stripes = %d; want 5", len(m.FragIDs))
	}
	others := append([]id.File{res.ManifestID}, m.FragIDs...)
	first, last := m.FragIDs[0], m.FragIDs[4]

	failHolders(t, c, s, first, others, rs84.Parity)
	failHolders(t, c, s, last, others, rs84.Parity)
	got, err := s.Fetch(res.ManifestID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("multi-stripe content mismatch after per-stripe losses")
	}

	// A fifth loss in one stripe exceeds its parity budget.
	failHolders(t, c, s, first, others, 1)
	if _, err := s.Fetch(res.ManifestID); err == nil {
		t.Fatal("fetch must fail when one stripe exceeds its parity budget")
	}
}

// TestCodedStripeSurvivesTwoWavesWithRepair loses parity-many fragments
// of one stripe, lets maintenance repair them, then loses parity-many
// more. Eight losses exceed what an rs(8,4) stripe tolerates at once;
// the object survives because node-level fragments are re-created
// between the waves.
func TestCodedStripeSurvivesTwoWavesWithRepair(t *testing.T) {
	c := codedCluster(t, 60, 1<<22, 12)
	s, _ := NewStore(c.Nodes[0], Options{FragmentSize: 32 << 10})
	content := randomContent(70_000, 12)
	res, err := s.Insert("waves.bin", content)
	if err != nil {
		t.Fatal(err)
	}
	m := manifestOf(t, s, res.ManifestID)
	others := append([]id.File{res.ManifestID}, m.FragIDs...)
	stripe := m.FragIDs[0]

	failHolders(t, c, s, stripe, others, rs84.Parity)
	for i := 0; i < 3; i++ {
		c.MaintainAll()
	}
	if got := liveIndices(c, stripe); got != rs84.Total() {
		t.Fatalf("%d of %d fragments live after repair", got, rs84.Total())
	}

	failHolders(t, c, s, stripe, others, rs84.Parity)
	if got := liveIndices(c, stripe); got != rs84.Data {
		t.Fatalf("%d fragments live after the second wave; want %d", got, rs84.Data)
	}
	got, err := s.Fetch(res.ManifestID)
	if err != nil {
		t.Fatalf("fetch after two waves of parity-many losses: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after two waves")
	}
}

// TestRSStorageOverheadBelowReplication: the same object striped over a
// k=3 replicated cluster and over an rs(8,4) coded one, measured as the
// change in replica plus fragment bytes.
func TestRSStorageOverheadBelowReplication(t *testing.T) {
	content := randomContent(64_000, 4)
	stored := func(c *past.Cluster, fragmentSize int) int64 {
		t.Helper()
		s, err := NewStore(c.Nodes[0], Options{FragmentSize: fragmentSize})
		if err != nil {
			t.Fatal(err)
		}
		before := c.StoredBytes() + c.FragBytes()
		if _, err := s.Insert("obj.bin", content); err != nil {
			t.Fatal(err)
		}
		return c.StoredBytes() + c.FragBytes() - before
	}
	rep := stored(testCluster(t, 40, 1<<22, 4), 8<<10)
	coded := stored(codedCluster(t, 40, 1<<22, 4), 8*(8<<10))

	// Section 3.6: replication stores ~k x size (k=3 here); rs(8,4)
	// stores ~1.5 x size (plus the small maps and manifest) — a 2x saving.
	if 10*coded >= 6*rep {
		t.Fatalf("coded overhead %d not well below replication %d", coded, rep)
	}
	if ratio := float64(coded) / float64(len(content)); ratio > 1.6 {
		t.Fatalf("coded stripes stored %.2fx the file size; want ~1.5x", ratio)
	}
}

func TestOversizedFileSucceedsFragmented(t *testing.T) {
	// A file larger than tpri allows on any node fails whole but
	// succeeds fragmented — the section 3.4 recourse.
	cap := int64(200_000)
	c := testCluster(t, 30, cap, 5)
	node := c.Nodes[0]
	content := randomContent(60_000, 5) // 60k > tpri(0.1) * 200k = 20k

	whole, err := node.Insert(past.InsertSpec{Name: "huge.bin", Content: content})
	if err != nil {
		t.Fatal(err)
	}
	if whole.OK {
		t.Fatal("sanity: whole-file insert should exceed every node's acceptance policy")
	}

	s, err := NewStore(node, Options{FragmentSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Insert("huge.bin", content)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Fetch(res.ManifestID)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("fragmented fetch failed: %v", err)
	}
}

func TestReclaimFreesEverything(t *testing.T) {
	c := testCluster(t, 30, 1<<22, 6)
	s, err := NewStore(c.Nodes[0], Options{FragmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Insert("gone.bin", randomContent(20_000, 6))
	if err != nil {
		t.Fatal(err)
	}
	before := c.StoredBytes()
	if before == 0 {
		t.Fatal("nothing stored")
	}
	// Reclaim every fragment the manifest names, then the manifest.
	m, err := s.manifest(res.ManifestID)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(m.FragIDs, res.ManifestID) {
		if _, err := c.Nodes[0].Reclaim(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.StoredBytes() != 0 {
		t.Fatalf("%d bytes left after reclaim", c.StoredBytes())
	}
	if _, err := s.Fetch(res.ManifestID); err == nil {
		t.Fatal("fetch after reclaim must fail")
	}
}

func TestManifestCodec(t *testing.T) {
	m := &manifest{Size: 123456, Sum: [20]byte{1, 2, 3}}
	for i := 0; i < 12; i++ {
		var f [20]byte
		f[0] = byte(i)
		m.FragIDs = append(m.FragIDs, f)
	}
	got, err := decodeManifest(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != m.Size || got.Sum != m.Sum {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
	if len(got.FragIDs) != 12 || got.FragIDs[5] != m.FragIDs[5] {
		t.Fatal("frag ids lost")
	}
}

func TestManifestDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC!abcdefghijklmnop"),
		append([]byte(manifestMagic), 0, 0, 0), // truncated
	} {
		if _, err := decodeManifest(raw); err == nil {
			t.Fatalf("garbage %q decoded", raw)
		}
	}
	// Claimed fragment count beyond the payload must be rejected.
	m := &manifest{Size: 1}
	enc := m.encode()
	enc[len(enc)-1] = 200 // inflate the count
	if _, err := decodeManifest(enc); err == nil {
		t.Fatal("inflated count decoded")
	}
}

func TestOptionValidation(t *testing.T) {
	c := testCluster(t, 10, 1<<20, 7)
	if _, err := NewStore(c.Nodes[0], Options{FragmentSize: -1}); err == nil {
		t.Fatal("negative fragment size accepted")
	}
	s, _ := NewStore(c.Nodes[0], Options{})
	if _, err := s.Insert("empty", nil); err == nil {
		t.Fatal("empty insert accepted")
	}
}

func TestFetchUnknownManifest(t *testing.T) {
	c := testCluster(t, 10, 1<<20, 8)
	s, _ := NewStore(c.Nodes[0], Options{})
	var ghost [20]byte
	ghost[0] = 0xff
	if _, err := s.Fetch(ghost); err == nil {
		t.Fatal("unknown manifest fetched")
	}
}

func TestManifestNotAFragmentFile(t *testing.T) {
	// Fetching a fileId that holds ordinary content must fail cleanly.
	c := testCluster(t, 10, 1<<20, 9)
	node := c.Nodes[0]
	res, err := node.Insert(past.InsertSpec{Name: "plain", Content: []byte("not a manifest")})
	if err != nil || !res.OK {
		t.Fatal("seed insert failed")
	}
	s, _ := NewStore(node, Options{})
	if _, err := s.Fetch(res.FileID); err == nil {
		t.Fatal("plain file fetched as manifest")
	}
}

func TestManyObjects(t *testing.T) {
	c := testCluster(t, 30, 1<<22, 10)
	s, _ := NewStore(c.Nodes[0], Options{FragmentSize: 4 << 10})
	rng := rand.New(rand.NewSource(10))
	type obj struct {
		id      [20]byte
		content []byte
	}
	var objs []obj
	for i := 0; i < 10; i++ {
		content := make([]byte, 1000+rng.Intn(20000))
		rng.Read(content)
		res, err := s.Insert(fmt.Sprintf("obj-%d", i), content)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj{id: res.ManifestID, content: content})
	}
	for i, o := range objs {
		got, err := s.Fetch(o.id)
		if err != nil || !bytes.Equal(got, o.content) {
			t.Fatalf("object %d corrupted: %v", i, err)
		}
	}
}
