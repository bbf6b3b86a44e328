package loadgen

import (
	"fmt"
	"sync"
	"time"

	"past/internal/id"
	"past/internal/stats"
	"past/internal/trace"
)

// Client is one access point as the driver sees it: a remote node
// reached over TCP (AddrClient) or a test stub. Implementations must be
// safe for concurrent calls.
type Client interface {
	// Insert stores a file and returns its fileId.
	Insert(name string, size int64, content []byte) (id.File, error)
	// Lookup fetches a file, reporting whether it was found.
	Lookup(f id.File) (bool, error)
}

// Run drives sc's offered load and request mix against c on the real
// clock and aggregates the outcome; the cluster half of sc (nodes,
// admission, hop latency, cache, EC) belongs to whatever c reaches and
// is not read. The schedule is fixed up front from the seed; a request
// whose intended time has passed is sent immediately and its lateness
// counts against its latency.
//
// conc caps in-flight requests, the one setting only a live run has:
// the open loop keeps firing on schedule, but at most conc requests are
// on the wire at once — excess sends queue, and their queueing time is
// *included* in measured latency (the coordinated-omission correction).
// Zero means unbounded: one goroutine per request.
func Run(sc SimConfig, conc int, c Client) (*Result, error) {
	if sc.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be > 0")
	}
	arr, err := newArrivals(sc.Arrivals, sc.Rate)
	if err != nil {
		return nil, err
	}
	w := sc.Workload
	ops := schedule(arr, w, sc.Requests, stats.NewRand(sc.Seed))

	var (
		mu  sync.Mutex
		ids = make([]id.File, w.Files)
		res = &Result{}
	)
	start := time.Now()
	exec := func(o op) {
		intended := start.Add(o.At)
		var found bool
		var err error
		routed := true
		if o.Op == trace.OpInsert {
			var fid id.File
			fid, err = c.Insert(trace.FileName(o.File), o.Size, payload(o.File, o.Size))
			if err == nil {
				mu.Lock()
				ids[o.File] = fid
				mu.Unlock()
				found = true
			}
		} else {
			mu.Lock()
			fid := ids[o.File]
			mu.Unlock()
			if fid.IsZero() {
				// The insert this lookup depends on has not completed
				// yet (open loop: nothing waits). Count the miss
				// without a wire round trip.
				routed = false
			} else {
				found, err = c.Lookup(fid)
			}
		}
		lat := time.Since(intended)

		mu.Lock()
		res.record(found, routed, err, lat, sc.SLO)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	if conc > 0 {
		ch := make(chan op)
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for o := range ch {
					sleepUntil(start.Add(o.At))
					exec(o)
				}
			}()
		}
		for _, o := range ops {
			ch <- o
		}
		close(ch)
	} else {
		for _, o := range ops {
			sleepUntil(start.Add(o.At))
			wg.Add(1)
			go func(o op) {
				defer wg.Done()
				exec(o)
			}(o)
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
