package past

import (
	"bytes"
	"fmt"
	"testing"

	"past/internal/cachengine"
	"past/internal/id"
	"past/internal/obs"
)

// engineCfg is smallCfg with an explicitly configured cache engine (no
// flash — flash has its own test below).
func engineCfg() Config {
	cfg := smallCfg()
	cfg.CacheEngine = &cachengine.Config{}
	return cfg
}

// TestLookupAfterRemoteInsert: a node that looked up a file before it
// existed must find it once another node's insert is acknowledged —
// nothing the first miss left behind may mask the new file.
func TestLookupAfterRemoteInsert(t *testing.T) {
	c := testCluster(t, 20, engineCfg(), 1<<20, 11)
	masked := 0
	for i, reader := range c.Nodes {
		name := fmt.Sprintf("late-%d", i)
		content := []byte("inserted after a miss: " + name)
		f := id.NewFile(name, nil, 1)
		if res, err := reader.Lookup(f); err != nil || res.Found {
			t.Fatalf("node %d: lookup before insert: %+v err=%v", i, res, err)
		}
		writer := c.Nodes[(i+7)%len(c.Nodes)]
		ins, err := writer.Insert(InsertSpec{Name: name, Salt: 1, Content: content})
		if err != nil || !ins.OK || ins.FileID != f {
			t.Fatalf("node %d: insert: %+v err=%v", i, ins, err)
		}
		got, err := reader.Lookup(f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Found {
			masked++
			continue
		}
		if !bytes.Equal(got.Content, content) {
			t.Fatalf("node %d: wrong content after the insert", i)
		}
	}
	if masked > 0 {
		t.Fatalf("%d of %d acknowledged inserts were not found by the node that missed first",
			masked, len(c.Nodes))
	}
}

func TestEngineCountersInSnapshot(t *testing.T) {
	c := testCluster(t, 20, engineCfg(), 1<<20, 12)
	client := c.RandomAliveNode()

	res, err := client.Insert(InsertSpec{Name: "f", Content: bytes.Repeat([]byte("x"), 512)})
	if err != nil || !res.OK {
		t.Fatalf("insert: %+v err=%v", res, err)
	}
	if _, err := client.Lookup(res.FileID); err != nil {
		t.Fatal(err)
	}
	client.Lookup(id.NewFile("ghost", nil, 1))

	snap := client.StatsSnapshot()
	// The engine's own series and the legacy series must stay coherent
	// with the engine's tiers.
	eng := client.Cache().Stats()
	if snap.Get(obs.CtrCacheRAMHits) != eng.RAMHits {
		t.Fatalf("RAM-hit counter = %d, engine %d", snap.Get(obs.CtrCacheRAMHits), eng.RAMHits)
	}
	if snap.Get(obs.CtrCacheHits) != eng.Hits() || snap.Get(obs.CtrCacheMisses) != eng.Misses {
		t.Fatalf("legacy series diverged: snap=(%d,%d) engine=(%d,%d)",
			snap.Get(obs.CtrCacheHits), snap.Get(obs.CtrCacheMisses), eng.Hits(), eng.Misses)
	}
}

// TestFlashTierOnNode runs a node whose cache engine spills to a flash
// tier and verifies a cached-but-evicted file is still served — with
// the engine reporting flash activity.
func TestFlashTierOnNode(t *testing.T) {
	cfg := smallCfg()
	cfg.CacheEngine = &cachengine.Config{
		RAMBytes: 2 << 10, // tiny RAM tier forces spills
		Flash: &cachengine.FlashConfig{
			Dir:      t.TempDir(),
			Capacity: 256 << 10,
		},
	}
	c := testCluster(t, 16, cfg, 1<<20, 13)
	client := c.RandomAliveNode()

	// Insert files through the overlay; the replies cache them on the
	// client (the access point), where the tiny RAM tier evicts older
	// entries into flash.
	var files []id.File
	for i := 0; i < 12; i++ {
		content := bytes.Repeat([]byte{byte('a' + i)}, 700)
		res, err := client.Insert(InsertSpec{Name: "flashfile", Salt: uint64(i), Content: content})
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %+v err=%v", i, res, err)
		}
		files = append(files, res.FileID)
	}
	st := client.Cache().Stats()
	if st.FlashSpills == 0 {
		t.Fatalf("tiny RAM tier never spilled: %+v", st)
	}

	// Every file must still be retrievable; files the client holds only
	// in flash are served from there (FromCache, zero hops).
	for i, f := range files {
		got, err := client.Lookup(f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Found || !bytes.Equal(got.Content, bytes.Repeat([]byte{byte('a' + i)}, 700)) {
			t.Fatalf("file %d: %+v", i, got)
		}
	}
	if st := client.Cache().Stats(); st.FlashHits == 0 {
		t.Fatalf("lookups never hit flash: %+v", st)
	}
	if err := client.Cache().Close(); err != nil {
		t.Fatal(err)
	}
}
