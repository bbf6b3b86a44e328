package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"past/internal/cache"
	"past/internal/ec"
	"past/internal/frag"
	"past/internal/past"
	"past/internal/stats"
	"past/internal/trace"
)

// The fragmentation experiment evaluates the paper's section 3.4
// recourse ("retry with a smaller file size, e.g. by fragmenting the
// file") and section 3.6 file-encoding sketch: at high utilization,
// large files that fail whole-file insertion succeed when fragmented,
// and Reed-Solomon coded stripes cut the storage overhead further.

// FragmentationResult compares insertion strategies for large files on
// a nearly full system.
type FragmentationResult struct {
	Utilization float64 // utilization when the large-file batch ran
	Files       int     // large files attempted per strategy

	WholeOK      int
	FragOK       int
	CodedOK      int
	WholeBytes   int64 // bytes consumed by successful inserts
	FragBytes    int64
	CodedBytes   int64
	FetchOKFrag  int // fragmented objects retrievable afterwards
	FetchOKCoded int
}

// codedStripes is the coding of the experiment's coded row.
var codedStripes = ec.Params{Data: 8, Parity: 4}

// RunFragmentation fills a cluster to high utilization with the web
// workload, then attempts a batch of large files three ways: whole-file
// insertion and 64 KiB fragments with k=5 replicas on that cluster, and
// 8 x 64 KiB stripes on a twin cluster that stores files rs(8,4)-coded
// (Config.ECMode), so each stripe becomes 12 x 64 KiB fragments. The
// twin is built and filled identically — the size-only fill is never
// coded — so the coded row sees the same utilization without competing
// with the other two for space.
func RunFragmentation(sc Scale, seed int64) (*FragmentationResult, error) {
	cluster, err := fragmentationCluster(sc, seed, nil)
	if err != nil {
		return nil, err
	}
	coded, err := fragmentationCluster(sc, seed, &codedStripes)
	if err != nil {
		return nil, err
	}
	res := &FragmentationResult{Utilization: cluster.Utilization(), Files: 20}

	// Large files: 2-6 MB, far beyond tpri x free on typical nodes.
	sizes := make([]int, res.Files)
	szr := stats.NewRand(seed ^ 0x51e)
	for i := range sizes {
		sizes[i] = 2<<20 + szr.Intn(4<<20)
	}

	node := cluster.Nodes[0]
	fragStore, err := frag.NewStore(node, frag.Options{FragmentSize: 64 << 10})
	if err != nil {
		return nil, err
	}
	codedStore, err := frag.NewStore(coded.Nodes[0], frag.Options{FragmentSize: codedStripes.Data * (64 << 10)})
	if err != nil {
		return nil, err
	}

	content := make([]byte, 6<<20)
	szr.Read(content)
	for i, size := range sizes {
		payload := content[:size]

		w, err := node.Insert(past.InsertSpec{Name: fmt.Sprintf("whole-%d", i), Size: int64(size)})
		if err != nil {
			return nil, err
		}
		if w.OK {
			res.WholeOK++
			res.WholeBytes += int64(size) * int64(w.Stored)
		}

		if stored, fetched, ok := insertStriped(cluster, fragStore, fmt.Sprintf("frag-%d", i), payload); ok {
			res.FragOK++
			res.FragBytes += stored
			if fetched {
				res.FetchOKFrag++
			}
		}
		if stored, fetched, ok := insertStriped(coded, codedStore, fmt.Sprintf("rs-%d", i), payload); ok {
			res.CodedOK++
			res.CodedBytes += stored
			if fetched {
				res.FetchOKCoded++
			}
		}
	}
	return res, nil
}

// fragmentationCluster builds the experiment's cluster — storing files
// coded with ecp when it is non-nil — and fills it to ~85% utilization
// with the standard workload.
func fragmentationCluster(sc Scale, seed int64, ecp *ec.Params) (*past.Cluster, error) {
	cfg := standardConfig(cache.None)
	cfg.ECMode = ecp
	cluster, _, err := table1Cluster(cfg, sc.Nodes, D1, 1, seed, 1)
	if err != nil {
		return nil, err
	}
	fill := trace.InsertOnly(filesFor(D1, sc.Nodes, 5, 1, webMeanSize, 0.85), trace.NLANRSizes(), seed)
	if err := insertTrace(cluster, fill, rand.New(rand.NewSource(seed^0xF11)), nil); err != nil {
		return nil, err
	}
	return cluster, nil
}

// insertStriped stores payload through s and reports the bytes the
// insert added to c — replicas plus erasure-coded fragments, so a coded
// stripe is charged its fragments rather than its map replicas — and
// whether the object reads back. ok is false if the insert failed.
func insertStriped(c *past.Cluster, s *frag.Store, name string, payload []byte) (stored int64, fetched, ok bool) {
	before := c.StoredBytes() + c.FragBytes()
	r, err := s.Insert(name, payload)
	if err != nil {
		return 0, false, false
	}
	stored = c.StoredBytes() + c.FragBytes() - before
	_, err = s.Fetch(r.ManifestID)
	return stored, err == nil, true
}

// RenderFragmentation formats the comparison.
func RenderFragmentation(r *FragmentationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fragmentation at %.1f%% utilization: %d large files (2-6 MB) per strategy\n",
		100*r.Utilization, r.Files)
	fmt.Fprintf(&b, "%-22s %9s %14s %12s\n", "strategy", "succeeded", "stored bytes", "retrievable")
	fmt.Fprintf(&b, "%-22s %8d/%d %14d %12s\n", "whole file (k=5)", r.WholeOK, r.Files, r.WholeBytes, "-")
	fmt.Fprintf(&b, "%-22s %8d/%d %14d %9d/%d\n", "fragments (k=5)", r.FragOK, r.Files, r.FragBytes, r.FetchOKFrag, r.FragOK)
	fmt.Fprintf(&b, "%-22s %8d/%d %14d %9d/%d\n", "rs(8,4) stripes", r.CodedOK, r.Files, r.CodedBytes, r.FetchOKCoded, r.CodedOK)
	b.WriteString("paper 3.4/3.6: fragmentation is the recourse for failed large inserts;\n")
	b.WriteString("RS coding cuts storage overhead from k to (n+m)/n at equal loss tolerance\n")
	b.WriteString("(rs(8,4) stripes: 8 x 64 KiB stripes on an identically filled twin cluster storing files rs(8,4)-coded)\n")
	return b.String()
}
