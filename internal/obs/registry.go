package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBucketCount is the number of exponential RPC-latency buckets:
// bucket i counts RPCs with duration < 1us * 2^i, the last bucket is
// the +Inf overflow. 2^26 us ≈ 67s, beyond any configured deadline.
const LatencyBucketCount = 28

// LatencyBucketBound returns the inclusive upper bound of bucket i
// (duration < bound lands in the bucket), or a negative duration for
// the +Inf overflow bucket.
func LatencyBucketBound(i int) time.Duration {
	if i >= LatencyBucketCount-1 {
		return -1
	}
	return time.Microsecond << uint(i)
}

// NodeStats is one node's live counter registry. Every field is a
// single atomic — cheap enough to stay on permanently, safe under the
// concurrent client operations and maintenance goroutines of a live node.
// Gauges that already live elsewhere on the node (store bytes, cache
// contents) are folded in at snapshot time by the owner, not duplicated
// here.
type NodeStats struct {
	// Traffic, counted at this node's network boundary.
	MsgsIn, MsgsOut atomic.Int64
	// RPCErrors counts outgoing invokes that failed (timeouts, dead
	// peers, application errors alike).
	RPCErrors atomic.Int64

	// Storage-management events (the paper's section 3 policies).
	ReplicasStored  atomic.Int64 // replicas accepted (primary + diverted-in)
	ReplicasDropped atomic.Int64 // replicas discarded or migrated away
	DivertedIn      atomic.Int64 // replicas accepted via replica diversion
	FileDiversions  atomic.Int64 // re-salted insert retries issued as client

	// Client operations served with this node as access point.
	Lookups, Inserts, Reclaims atomic.Int64

	// Inserts acknowledged with fewer than k replicas (Config.PartialInsert).
	PartialInserts atomic.Int64

	// RPC latency histogram for outgoing invokes (wall clock; reported,
	// never replayed). Only a network with real latency fills it: on the
	// emulator it stays empty (see InstrumentNet).
	RPCTimeNanos atomic.Int64
	rpcLat       [LatencyBucketCount]atomic.Int64
}

// ObserveRPC records one outgoing RPC's duration.
func (s *NodeStats) ObserveRPC(d time.Duration) {
	s.RPCTimeNanos.Add(int64(d))
	us := d / time.Microsecond
	b := 0
	for b < LatencyBucketCount-1 && us >= time.Duration(1)<<uint(b) {
		b++
	}
	s.rpcLat[b].Add(1)
}

// Counter names used in snapshots and the text exposition. Exported as
// constants so tests and renderers cannot drift from the registry.
const (
	CtrMsgsIn          = "msgs_in_total"
	CtrMsgsOut         = "msgs_out_total"
	CtrRPCErrors       = "rpc_errors_total"
	CtrRPCTimeNanos    = "rpc_time_nanos_total"
	CtrReplicasStored  = "replicas_stored_total"
	CtrReplicasDropped = "replicas_dropped_total"
	CtrDivertedIn      = "replica_diversions_in_total"
	CtrFileDiversions  = "file_diversions_total"
	CtrLookups         = "lookups_total"
	CtrInserts         = "inserts_total"
	CtrReclaims        = "reclaims_total"
	CtrPartialInserts  = "partial_inserts_total"

	// Names the owning node fills in at snapshot time (gauges and
	// counters held by other subsystems).
	CtrStoreBytes     = "store_bytes"
	CtrStoreCapacity  = "store_capacity_bytes"
	CtrStoreReplicas  = "store_replicas"
	CtrStorePointers  = "store_pointers"
	CtrCacheBytes     = "cache_bytes"
	CtrCacheEntries   = "cache_entries"
	CtrCacheHits      = "cache_hits_total"
	CtrCacheMisses    = "cache_misses_total"
	CtrCacheEvictions = "cache_evictions_total"
	CtrReroutes       = "reroutes_total"
	CtrOverloadHops   = "overload_hops_total"
	CtrLeafRepairs    = "leaf_repairs_total"
	CtrOverlayJoined  = "overlay_joined"
	CtrLeafSetSize    = "leaf_set_size"
	CtrTableEntries   = "routing_table_entries"
	CtrBelowKEvents   = "below_k_events_total"

	// Durable storage-engine counters (internal/logstore). The backend
	// owns the atomics; the node folds them in at snapshot time through
	// the CounterSource interface, so they ride the same registry and
	// Prometheus path as every other counter.
	CtrWALAppends       = "logstore_wal_appends_total"
	CtrWALBytes         = "logstore_wal_bytes_total"
	CtrFsyncs           = "logstore_fsyncs_total"
	CtrCheckpoints      = "logstore_checkpoints_total"
	CtrCompactions      = "logstore_compactions_total"
	CtrCompactedBytes   = "logstore_compacted_bytes_total"
	CtrSegRotations     = "logstore_segment_rotations_total"
	CtrTornTruncations  = "logstore_torn_truncations_total"
	CtrRecoveredRecords = "logstore_recovered_records_total"
	CtrRecoveryNanos    = "logstore_recovery_nanos_total"
	CtrChecksumFailures = "logstore_checksum_failures_total"
	CtrSegments         = "logstore_segments"

	// Cache-engine counters (internal/cachengine). The engine owns the
	// atomics and contributes them through CounterSource, like the
	// storage backend. The legacy cache_hits/misses/evictions names
	// above stay populated (hits = RAM + flash) so dashboards and the
	// stats RPC see one continuous series.
	CtrCacheRAMHits      = "cachengine_ram_hits_total"
	CtrCacheFlashHits    = "cachengine_flash_hits_total"
	CtrCacheFlashSpills  = "cachengine_flash_spills_total"
	CtrCacheFlashDrops   = "cachengine_flash_seg_drops_total"
	CtrCacheFlashBytes   = "cachengine_flash_bytes"
	CtrCacheFlashEntries = "cachengine_flash_entries"
	// CtrCacheAdmitRejects named the engine's admission-filter
	// rejections. The filter is gone and nothing produces the counter
	// any more; the name stays only for readers that still look it up,
	// which read 0.
	CtrCacheAdmitRejects = "cachengine_admit_rejects_total"

	// Erasure-coding counters (internal/ec). The fragment store and the
	// lazy repair queue own the values; the node folds them in through
	// CounterSource so repair depth/bytes show up in /metrics, the stats
	// RPC, and fleet SLO evaluation.
	CtrECFragments      = "ec_fragments"
	CtrECFragmentBytes  = "ec_fragment_bytes"
	CtrECFragReads      = "ec_fragment_reads_total"
	CtrECCRCFailures    = "ec_crc_failures_total"
	CtrECInserts        = "ec_inserts_total"
	CtrECReconstructs   = "ec_reconstructs_total"
	CtrECRepairDepth    = "ec_repair_queue_depth"
	CtrECRepairEnqueued = "ec_repairs_enqueued_total"
	CtrECRepairDone     = "ec_repairs_done_total"
	CtrECRepairFailed   = "ec_repairs_failed_total"
	CtrECRepairDeferred = "ec_repairs_deferred_total"
	CtrECRepairBytes    = "ec_repair_bytes_total"
)

// CounterSource lets a subsystem contribute named counters to a node's
// snapshot. A storage backend implementing it has its counters folded
// into StatsSnapshot, and from there into /metrics, the stats RPC, and
// the experiment drivers.
type CounterSource interface {
	ObsCounters() map[string]int64
}

// Snapshot is a point-in-time copy of a registry (or an aggregate of
// several): a name->value counter map plus the RPC-latency bucket
// counts. It is a plain value — gob/JSON encodable, diffable, and safe
// to hand across goroutines.
type Snapshot struct {
	Counters map[string]int64
	RPCLat   []int64 // LatencyBucketCount bucket counts
}

// Snapshot copies the registry's own counters. The owner adds its
// gauge values before exposing the result.
func (s *NodeStats) Snapshot() Snapshot {
	snap := Snapshot{
		Counters: map[string]int64{
			CtrMsgsIn:          s.MsgsIn.Load(),
			CtrMsgsOut:         s.MsgsOut.Load(),
			CtrRPCErrors:       s.RPCErrors.Load(),
			CtrRPCTimeNanos:    s.RPCTimeNanos.Load(),
			CtrReplicasStored:  s.ReplicasStored.Load(),
			CtrReplicasDropped: s.ReplicasDropped.Load(),
			CtrDivertedIn:      s.DivertedIn.Load(),
			CtrFileDiversions:  s.FileDiversions.Load(),
			CtrLookups:         s.Lookups.Load(),
			CtrInserts:         s.Inserts.Load(),
			CtrReclaims:        s.Reclaims.Load(),
			CtrPartialInserts:  s.PartialInserts.Load(),
		},
		RPCLat: make([]int64, LatencyBucketCount),
	}
	for i := range s.rpcLat {
		snap.RPCLat[i] = s.rpcLat[i].Load()
	}
	return snap
}

// Get returns a counter by name (0 if absent).
func (s Snapshot) Get(name string) int64 { return s.Counters[name] }

// Set stores a counter value, allocating the map if needed, and
// returns the snapshot for chaining.
func (s *Snapshot) Set(name string, v int64) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[name] = v
}

// Names returns the snapshot's counter names in sorted order, for
// deterministic rendering.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Delta returns this snapshot minus prev, counter by counter (absent
// counters count as zero on either side). Latency buckets subtract
// element-wise. Gauges subtract like counters; interpret their deltas
// as net change over the interval.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{Counters: make(map[string]int64, len(s.Counters))}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range prev.Counters {
		if _, ok := s.Counters[k]; !ok {
			out.Counters[k] = -v
		}
	}
	n := len(s.RPCLat)
	if len(prev.RPCLat) > n {
		n = len(prev.RPCLat)
	}
	if n > 0 {
		out.RPCLat = make([]int64, n)
		for i := 0; i < n; i++ {
			var a, b int64
			if i < len(s.RPCLat) {
				a = s.RPCLat[i]
			}
			if i < len(prev.RPCLat) {
				b = prev.RPCLat[i]
			}
			out.RPCLat[i] = a - b
		}
	}
	return out
}

// TotalRPCs returns the number of RPCs the latency histogram has seen.
func (s Snapshot) TotalRPCs() int64 {
	var n int64
	for _, v := range s.RPCLat {
		n += v
	}
	return n
}

// RPCQuantile returns the p-th percentile (0-100) of the RPC-latency
// histogram, interpolating linearly between the edges of the bucket the
// rank lands in rather than snapping to a boundary. The overflow bucket
// has no upper edge; mass landing there reports its lower edge. Returns
// 0 when the histogram is empty.
func (s Snapshot) RPCQuantile(p float64) time.Duration {
	total := s.TotalRPCs()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := p / 100 * float64(total)
	var cum int64
	for i, c := range s.RPCLat {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) >= target {
			hi := LatencyBucketBound(i)
			if hi < 0 { // +Inf overflow: report the bucket's lower edge
				return LatencyBucketBound(i - 1)
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = LatencyBucketBound(i - 1)
			}
			frac := (target - prev) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
	}
	return 0
}

// Aggregate sums snapshots counter-by-counter and bucket-by-bucket —
// the experiment drivers use it to view an emulated network as one
// system.
func Aggregate(snaps ...Snapshot) Snapshot {
	out := Snapshot{Counters: make(map[string]int64), RPCLat: make([]int64, LatencyBucketCount)}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for i, v := range s.RPCLat {
			if i < len(out.RPCLat) {
				out.RPCLat[i] += v
			}
		}
	}
	return out
}
