// Package trace generates the workloads of the paper's evaluation.
//
// The paper drives PAST with two traces we cannot redistribute:
//
//   - eight NLANR web-proxy logs (4,000,000 entries, 1,863,055 unique
//     URLs, 18.7 GB, mean file size 10,517 B, median 1,312 B, maximum
//     138 MB, 775 clients at 8 geographically distinct sites);
//   - a filesystem scan of the authors' home institutions (2,027,908
//     files, 166.6 GB, mean 88,233 B, median 4,578 B, maximum 2.7 GB).
//
// This package substitutes statistically equivalent synthetic workloads:
// lognormal file sizes fitted exactly to the published median and mean
// (clamped at the published maxima, with a small probability of
// zero-byte files, which both traces contain), Zipf-like request
// popularity (Breslau et al., cited by the paper, report alpha around
// 0.64-0.83 for web traces), and clients partitioned into 8 proximity
// sites. The storage results depend only on the size distribution and
// arrival order; the caching results additionally on popularity skew and
// client locality — all of which are preserved. See DESIGN.md section 3.
package trace

import (
	"fmt"
	"math/rand"

	"past/internal/stats"
)

// Op is the type of a trace event.
type Op uint8

// Event operations.
const (
	// OpInsert is the first reference to a file: the client inserts it.
	OpInsert Op = iota
	// OpLookup is a repeat reference: the client retrieves the file.
	OpLookup
)

// Event is one trace record.
type Event struct {
	Op     Op
	File   int32 // unique-file index
	Client int32 // client index issuing the request
	Size   int64 // file size; set on OpInsert events
}

// Workload is a replayable sequence of events.
type Workload struct {
	Events  []Event
	Files   int // number of unique files referenced
	Clients int // number of distinct clients
	Sites   int // number of client sites (proximity clusters)
	// SiteOf maps client index to site index.
	SiteOf []int32
	// Sizes maps unique-file index to size in bytes.
	Sizes []int64
	// TotalBytes is the sum of unique-file sizes.
	TotalBytes int64
}

// FileName returns the canonical name of unique file i, the input to
// fileId derivation during replay.
func FileName(i int32) string { return fmt.Sprintf("trace-file-%d", i) }

// NLANRSizes is the published NLANR web-proxy size distribution,
// expressed as a stats.SizeDist.
func NLANRSizes() stats.SizeDist {
	return stats.SizeDist{
		LN:    stats.LogNormalFromMedianMean(1312, 10517),
		Min:   0,
		Max:   138 << 20, // 138 MB
		PZero: 0.0005,
	}
}

// FilesystemSizes is the published filesystem-scan size distribution.
func FilesystemSizes() stats.SizeDist {
	return stats.SizeDist{
		LN:    stats.LogNormalFromMedianMean(4578, 88233),
		Min:   0,
		Max:   27 << 30 / 10, // 2.7 GB
		PZero: 0.0005,
	}
}

// InsertOnly generates an insert-only workload of n unique files with
// the given size distribution — the form the storage-management
// experiments consume (they ignore repeat references).
func InsertOnly(n int, dist stats.SizeDist, seed int64) *Workload {
	r := rand.New(rand.NewSource(seed))
	w := &Workload{
		Events:  make([]Event, 0, n),
		Files:   n,
		Clients: 1,
		Sites:   1,
		SiteOf:  []int32{0},
		Sizes:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		sz := dist.Sample(r)
		w.Sizes[i] = sz
		w.TotalBytes += sz
		w.Events = append(w.Events, Event{Op: OpInsert, File: int32(i), Client: 0, Size: sz})
	}
	return w
}

// WebSpec parameterizes a web-proxy-like request stream.
type WebSpec struct {
	// UniqueFiles is the size of the URL population.
	UniqueFiles int
	// Requests is the total number of trace entries (first references
	// insert, repeats look up). The paper's ratio is ~2.15 requests per
	// unique URL.
	Requests int
	// Clients and Sites partition requesters (the paper: 775 clients at
	// 8 sites).
	Clients, Sites int
	// Sizes is the file-size distribution.
	Sizes stats.SizeDist
	// Seed makes generation deterministic.
	Seed int64
}

const (
	// webZipfAlpha is the popularity exponent (~0.8 for web traces).
	webZipfAlpha = 0.8
	// webAffinityP is the probability that a request for a file comes
	// from the file's home site rather than a uniformly random site; it
	// models the geographic interest locality that makes per-site
	// caching effective.
	webAffinityP = 0.5
)

// DefaultWebSpec returns a paper-shaped specification at the given scale
// (unique file count); requests scale at the paper's 2.15x ratio.
func DefaultWebSpec(uniqueFiles int, seed int64) WebSpec {
	return WebSpec{
		UniqueFiles: uniqueFiles,
		Requests:    uniqueFiles * 215 / 100,
		Clients:     775,
		Sites:       8,
		Sizes:       NLANRSizes(),
		Seed:        seed,
	}
}

// WebTrace generates a full request stream: files are drawn by Zipf
// popularity; a file's first appearance is its insertion (exactly how
// the paper replays the NLANR log: "the first appearance of a URL being
// used to insert the file, with subsequent references ... performing a
// lookup"). The number of unique files actually referenced is reported
// in the result and is at most UniqueFiles.
func WebTrace(spec WebSpec) *Workload {
	if spec.UniqueFiles <= 0 || spec.Requests <= 0 || spec.Clients <= 0 || spec.Sites <= 0 {
		panic("trace: WebTrace needs positive counts")
	}
	r := rand.New(rand.NewSource(spec.Seed))
	z := stats.NewZipf(spec.UniqueFiles, webZipfAlpha)

	// Popularity rank -> file index permutation, so popularity is
	// independent of file index and hence of size.
	perm := r.Perm(spec.UniqueFiles)

	// Per-file size and home site.
	sizes := make([]int64, spec.UniqueFiles)
	home := make([]int32, spec.UniqueFiles)
	for i := range sizes {
		sizes[i] = spec.Sizes.Sample(r)
		home[i] = int32(r.Intn(spec.Sites))
	}
	siteOf := make([]int32, spec.Clients)
	for c := range siteOf {
		siteOf[c] = int32(c % spec.Sites)
	}
	// Clients grouped by site for affinity draws.
	bySite := make([][]int32, spec.Sites)
	for c, s := range siteOf {
		bySite[s] = append(bySite[s], int32(c))
	}

	w := &Workload{
		Events:  make([]Event, 0, spec.Requests),
		Clients: spec.Clients,
		Sites:   spec.Sites,
		SiteOf:  siteOf,
		Sizes:   sizes,
	}
	seen := make([]bool, spec.UniqueFiles)
	unique := 0
	for i := 0; i < spec.Requests; i++ {
		f := int32(perm[z.Rank(r)])
		var site int32
		if r.Float64() < webAffinityP {
			site = home[f]
		} else {
			site = int32(r.Intn(spec.Sites))
		}
		clients := bySite[site]
		client := clients[r.Intn(len(clients))]
		if !seen[f] {
			seen[f] = true
			unique++
			w.TotalBytes += sizes[f]
			w.Events = append(w.Events, Event{Op: OpInsert, File: f, Client: client, Size: sizes[f]})
		} else {
			w.Events = append(w.Events, Event{Op: OpLookup, File: f, Client: client})
		}
	}
	w.Files = unique
	return w
}
