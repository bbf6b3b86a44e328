package past

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"past/internal/ec"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/store"
	"past/internal/topology"
)

// logstoreTestOpts: synchronous but cheap (no fsync-per-op), no
// background churn, so the test is deterministic and fast.
func logstoreTestOpts(capacity int64) logstore.Options {
	return logstore.Options{Capacity: capacity, Sync: logstore.SyncNever, CheckpointBytes: -1, CompactRatio: -1}
}

// buildLogstoreCluster is testCluster with node i < len(dirs) running
// on a log-structured backend rooted at dirs[i], seen through wrap when
// it is set, and smallCfg changed by each of mods.
func buildLogstoreCluster(t *testing.T, n int, dirs []string, seed int64, wrap func(store.Backend) store.Backend, mods ...func(*Config)) (*Cluster, []*logstore.Store) {
	t.Helper()
	cfg := smallCfg()
	for _, mod := range mods {
		mod(&cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Cluster{Net: netsim.New(), ByID: make(map[id.Node]*Node, n), rng: rng}
	plane := topology.DefaultPlane
	positions := plane.Uniform(rng, n)
	var stores []*logstore.Store
	for i := 0; i < n; i++ {
		var nid id.Node
		rng.Read(nid[:])
		var node *Node
		if i < len(dirs) {
			s, err := logstore.Open(dirs[i], logstoreTestOpts(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			stores = append(stores, s)
			var b store.Backend = s
			if wrap != nil {
				b = wrap(s)
			}
			node = NewWithStore(nid, c.Net, cfg, b, rng.Int63())
		} else {
			node = NewWithStore(nid, c.Net, cfg, store.New(1<<20), rng.Int63())
		}
		c.Net.Register(nid, positions[i], node)
		if i == 0 {
			node.Overlay().Bootstrap()
		} else {
			if err := node.Overlay().Join(c.Nodes[rng.Intn(len(c.Nodes))].ID()); err != nil {
				t.Fatal(err)
			}
		}
		c.Nodes = append(c.Nodes, node)
		c.ByID[nid] = node
	}
	return c, stores
}

// contentReads counts the Gets of a backend that return content: on a
// logstore, each one is a segment pread and a CRC check.
type contentReads struct {
	store.Backend
	n *atomic.Int64
}

func (c contentReads) Get(f id.File) (store.Entry, bool) {
	e, ok := c.Backend.Get(f)
	if e.Content != nil {
		c.n.Add(1)
	}
	return e, ok
}

// TestSteadyMaintenanceReadsNoContent: a maintenance pass over a settled
// cluster only checks that each replica-set member holds its files, so
// on durable nodes it must not read a single replica's content back
// from disk. (Answering the acquire probes with Get read every held
// replica k-1 times per pass: 180 reads here.) The files are larger
// than any fragment map, which the pass does read to recognise one.
func TestSteadyMaintenanceReadsNoContent(t *testing.T) {
	const nodes = 12
	dirs := make([]string, nodes)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var reads atomic.Int64
	c, _ := buildLogstoreCluster(t, nodes, dirs, 3, func(b store.Backend) store.Backend {
		return contentReads{Backend: b, n: &reads}
	})
	client := c.Nodes[nodes-1]
	for i := 0; i < 30; i++ {
		content := make([]byte, ec.MaxMapSize+1)
		c.rng.Read(content)
		if res, err := client.Insert(InsertSpec{Name: "file", Salt: uint64(i + 1), Content: content}); err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
	}
	c.MaintainAll() // settle
	probes := func() int64 { return c.Net.MessagesByType()["*past.acquireMsg"] }
	reads.Store(0)
	before := probes()
	c.MaintainAll()
	if probes() == before {
		t.Fatal("the maintenance pass sent no acquire probes; the test checks nothing")
	}
	if got := reads.Load(); got != 0 {
		t.Fatalf("a steady maintenance pass read replica content %d times; want 0", got)
	}
}

// TestNodeOnLogstoreRestartRoundTrip drives inserts through a cluster
// whose first node stores replicas in a logstore, then "restarts" that
// node by reopening the directory: the rebuilt backend must present the
// identical Entries and Pointers lists.
func TestNodeOnLogstoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, stores := buildLogstoreCluster(t, 20, []string{dir}, 7, nil)
	subject, ls := c.Nodes[0], stores[0]

	client := c.Nodes[len(c.Nodes)-1]
	for i := 0; i < 30; i++ {
		content := make([]byte, 200)
		c.rng.Read(content)
		if _, err := client.Insert(InsertSpec{Name: "file", Salt: uint64(i), Content: content}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	entries := ls.Entries()
	pointers := ls.Pointers()
	if len(entries) == 0 {
		t.Fatal("no replicas landed on the logstore node; adjust cluster size")
	}

	// Crash the node's store and reopen the directory, as a pastd
	// restart would.
	ls.Kill()
	ls2, err := logstore.Open(dir, logstoreTestOpts(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer ls2.Close()
	if !reflect.DeepEqual(ls2.Entries(), entries) {
		t.Fatal("Entries differ after restart")
	}
	if !reflect.DeepEqual(ls2.Pointers(), pointers) {
		t.Fatal("Pointers differ after restart")
	}

	// A fresh node over the recovered backend serves the replicas and
	// exports the storage counters through the stats snapshot.
	node2 := NewWithStore(subject.ID(), c.Net, smallCfg(), ls2, 1)
	snap := node2.StatsSnapshot()
	if snap.Get(obs.CtrStoreReplicas) != int64(len(entries)) {
		t.Fatalf("replica gauge %d, want %d", snap.Get(obs.CtrStoreReplicas), len(entries))
	}
	if _, ok := snap.Counters[obs.CtrWALAppends]; !ok {
		t.Fatal("logstore counters missing from stats snapshot")
	}
	for _, e := range entries {
		got, ok := ls2.Get(e.File)
		if !ok || got.Content == nil {
			t.Fatalf("replica %s content lost across restart", e.File.Short())
		}
	}
}

// TestCertifiedLookupRejectsLostContent: a holder whose logstore record
// fails its CRC keeps the replica's metadata and certificate but serves
// no bytes. A certified lookup must check the content against the
// certificate's hash whatever it holds, so it fails rather than return
// an empty file for a non-empty one (paper section 2.3). The nodes on a
// failed lookup's route see its reply before the client checks it, and
// a cached copy carries no certificate: once every replica's content is
// gone, no lookup, however many run, may answer with other content.
func TestCertifiedLookupRejectsLostContent(t *testing.T) {
	const nodes = 12
	dirs := make([]string, nodes)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	iss, card := newCard(t, 1<<30)
	c, _ := buildLogstoreCluster(t, nodes, dirs, 11, nil, func(cfg *Config) {
		cfg.VerifyCerts = true
		cfg.Issuer = iss.PublicKey()
	})
	content := make([]byte, 4096)
	c.rng.Read(content)
	res, err := c.Nodes[0].Insert(InsertSpec{Name: "certified", Content: content, Owner: card})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}
	var holders []int
	for i, n := range c.Nodes {
		if n.HasReplica(res.FileID) {
			holders = append(holders, i)
		}
	}
	if len(holders) == 0 {
		t.Fatal("no node holds the file")
	}
	holder := holders[0]
	if lr, err := c.Nodes[holder].Lookup(res.FileID); err != nil || !bytes.Equal(lr.Content, content) {
		t.Fatalf("lookup before the damage: %v", err)
	}

	// Flip one byte of the replica's content in every holder's segment.
	for _, h := range holders {
		flipped := false
		segs, _ := filepath.Glob(filepath.Join(dirs[h], "seg-*.seg"))
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if at := bytes.Index(b, content); at >= 0 {
				b[at+len(content)/2] ^= 0xff
				if err := os.WriteFile(seg, b, 0o644); err != nil {
					t.Fatal(err)
				}
				flipped = true
			}
		}
		if !flipped {
			t.Fatalf("the replica's bytes are in no segment of holder %d", h)
		}
	}
	if lr, err := c.Nodes[holder].Lookup(res.FileID); err == nil {
		t.Fatalf("certified lookup of a replica whose content is gone succeeded: found=%v size=%d, %d bytes",
			lr.Found, lr.Size, len(lr.Content))
	}
	wrong, failed := 0, 0
	for round := 0; round < 3; round++ {
		for _, n := range c.Nodes {
			lr, err := n.Lookup(res.FileID)
			switch {
			case err != nil:
				failed++
			case !lr.Found || !bytes.Equal(lr.Content, content):
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of %d lookups answered with content other than the file's (%d failed)", wrong, 3*nodes, failed)
	}
	t.Logf("%d of %d lookups failed, %d answered right", failed, 3*nodes, 3*nodes-failed-wrong)
}
