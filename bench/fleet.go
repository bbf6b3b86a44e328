package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"past/internal/id"
	"past/internal/logstore"
	"past/internal/netsim"
	"past/internal/past"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

var wireOnce sync.Once

func registerWire() {
	wireOnce.Do(func() {
		wire.RegisterWire()
		past.RegisterWire()
	})
}

// simCluster is the benchmark's own netsim cluster. It is built exactly
// as past.NewCluster builds one (same draws from the same seeded source,
// in the same order), because past.NewCluster offers no way to wrap the
// store backend or the registered endpoint, which the traced run needs.
// TestSimMirrorsExperiments holds the two together.
type simCluster struct {
	net   *netsim.Network
	nodes []*past.Node
	caps  int64
}

func buildSim(n int, cfg past.Config, caps []int64, seed int64, sm seams) (*simCluster, error) {
	c := &simCluster{net: netsim.New()}
	rng := rand.New(rand.NewSource(seed))
	positions := topology.DefaultPlane.Uniform(rng, n)
	seen := make(map[id.Node]bool, n)
	for i := 0; i < n; i++ {
		var nid id.Node
		rng.Read(nid[:])
		if seen[nid] {
			return nil, fmt.Errorf("nodeId collision while building cluster")
		}
		seen[nid] = true
		node := past.NewWithStore(nid, sm.net(layerNetsim, c.net), cfg, sm.backend(store.New(caps[i])), rng.Int63())
		c.net.Register(nid, positions[i], sm.endpoint(node))
		if i == 0 {
			node.Overlay().Bootstrap()
		} else if err := node.Overlay().Join(c.closest(positions[:i], positions[i])); err != nil {
			return nil, fmt.Errorf("join node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, node)
		c.caps += caps[i]
	}
	return c, nil
}

// closest returns the already-built node proximally closest to pos.
func (c *simCluster) closest(built []topology.Point, pos topology.Point) id.Node {
	best, bestD := 0, math.Inf(1)
	for i, p := range built {
		if d := topology.Distance(pos, p); d < bestD {
			best, bestD = i, d
		}
	}
	return c.nodes[best].ID()
}

func (c *simCluster) storedBytes() int64 {
	var sum int64
	for _, n := range c.nodes {
		sum += n.StoredBytes()
	}
	return sum
}

// tcpFleet is N past.Nodes in this process, each on its own loopback
// transport, joined through node 0, plus one client transport.
type tcpFleet struct {
	nodes  []*past.Node
	trs    []*transport.TCP
	addrs  []string
	stores []*logstore.Store // nil entries for the memory store
	client *transport.TCP
	dir    string // data directory of the log stores, "" if none
}

type fleetSpec struct {
	n        int
	cfg      past.Config
	capacity int64
	logStore bool   // logstore backend with SyncInterval, else the memory store
	workdir  string // parent of the log stores' data directory
}

func buildFleet(spec fleetSpec, seed int64, sm seams) (f *tcpFleet, err error) {
	registerWire()
	f = &tcpFleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if spec.logStore {
		if f.dir, err = os.MkdirTemp(spec.workdir, "pastbench-log-"); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < spec.n; i++ {
		var nid id.Node
		rng.Read(nid[:])
		tr, err := transport.New(nid, "127.0.0.1:0", topology.DefaultPlane.RandomPoint(rng))
		if err != nil {
			return nil, err
		}
		f.trs = append(f.trs, tr)
		var backend store.Backend = store.New(spec.capacity)
		var ls *logstore.Store
		if spec.logStore {
			ls, err = logstore.Open(filepath.Join(f.dir, fmt.Sprintf("n%02d", i)),
				logstore.Options{Capacity: spec.capacity, Sync: logstore.SyncInterval})
			if err != nil {
				return nil, err
			}
			backend = ls
		}
		f.stores = append(f.stores, ls)
		node := past.NewWithStore(nid, sm.net(layerTransport, tr), spec.cfg, sm.backend(backend), rng.Int63())
		tr.Serve(sm.endpoint(node))
		if i == 0 {
			node.Overlay().Bootstrap()
		} else {
			bootID, err := tr.Bootstrap(f.trs[0].Addr())
			if err != nil {
				return nil, err
			}
			if err := node.Overlay().Join(bootID); err != nil {
				return nil, fmt.Errorf("join node %d: %w", i, err)
			}
		}
		f.nodes = append(f.nodes, node)
		f.addrs = append(f.addrs, tr.Addr())
	}
	var cid id.Node
	rng.Read(cid[:])
	if f.client, err = transport.New(cid, "127.0.0.1:0", topology.Point{}); err != nil {
		return nil, err
	}
	return f, f.warm()
}

// warm uses every client->access-point and node->node pair once, so
// that no measured op pays for a dial or a gob type preamble.
func (f *tcpFleet) warm() error {
	ctx := context.Background()
	for _, addr := range f.addrs {
		if _, err := f.client.InvokeAddrContext(ctx, addr, &wire.DirQuery{}); err != nil {
			return fmt.Errorf("warm client->%s: %w", addr, err)
		}
	}
	for i, tr := range f.trs {
		for j, peer := range f.nodes {
			if i == j {
				continue
			}
			if _, err := tr.Invoke(ctx, f.nodes[i].ID(), peer.ID(), &wire.DirQuery{}); err != nil {
				return fmt.Errorf("warm node %d->%d: %w", i, j, err)
			}
		}
	}
	return nil
}

// heldBytes is what the fleet holds for the files it was given: replica
// bytes (for a log store, the bytes of its files on disk) plus the
// fragment bytes the caller read from the nodes' counters.
func (f *tcpFleet) heldBytes(fragBytes int64) (int64, error) {
	sum := fragBytes
	for i, n := range f.nodes {
		if ls := f.stores[i]; ls != nil {
			b, err := dirBytes(ls.Dir())
			if err != nil {
				return 0, err
			}
			sum += b
		} else {
			sum += n.StoredBytes()
		}
	}
	return sum, nil
}

func dirBytes(dir string) (int64, error) {
	var sum int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		sum += info.Size()
	}
	return sum, nil
}

// close stops every transport and store and removes the data directory.
func (f *tcpFleet) close() error {
	if f.client != nil {
		f.client.Close()
	}
	for _, tr := range f.trs {
		tr.Close()
	}
	var first error
	for _, ls := range f.stores {
		if ls != nil {
			if err := ls.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
