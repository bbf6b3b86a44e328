// Command pastctl is the PAST client: it drives a running pastd node
// through the client RPCs.
//
//	pastctl -node 127.0.0.1:7001 insert report.pdf < report.pdf
//	pastctl -node 127.0.0.1:7001 lookup <fileId-hex> > report.pdf
//	pastctl -node 127.0.0.1:7001 reclaim <fileId-hex>
//	pastctl -node 127.0.0.1:7001 exists <fileId-hex>
//	pastctl -node 127.0.0.1:7001 trace <fileId-hex>
//	pastctl -node 127.0.0.1:7001 status
//	pastctl -node 127.0.0.1:7001 stats
//
// It also carries the offline storage inspector, which needs no node:
//
//	pastctl fsck [-q] <dir>
//
// verifies a log-structured store directory (WAL framing and checksums,
// segment record checksums, checkpoint consistency, orphaned segments)
// and exits 1 if it finds corruption, 2 on a usage or I/O error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"past/internal/daemon"
	"past/internal/id"
	"past/internal/netsim"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/transport"
)

func main() {
	var (
		node = flag.String("node", "127.0.0.1:7001", "address of the PAST node acting as access point")
		k    = flag.Int("k", 0, "replication factor for inserts (0: node default)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pastctl [-node addr] insert <name> | lookup <fileId> | reclaim <fileId> | exists <fileId> | trace <fileId> | status | stats | fsck [-q] <dir>")
		os.Exit(2)
	}
	if flag.Arg(0) == "fsck" {
		os.Exit(runFsck(flag.Args()[1:]))
	}

	tr, err := daemon.NewClient()
	if err != nil {
		log.Fatalf("pastctl: %v", err)
	}
	defer tr.Close()

	if err := runCommand(tr, *node, *k, flag.Args()); err != nil {
		log.Fatalf("pastctl: %v", err)
	}
}

func runCommand(tr *transport.TCP, node string, k int, args []string) error {
	switch args[0] {
	case "insert":
		if len(args) != 2 {
			return fmt.Errorf("insert needs a file name (content on stdin)")
		}
		content, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fmt.Errorf("read stdin: %w", err)
		}
		ir, err := netsim.ReplyAs[past.ClientInsertReply](tr.InvokeAddr(node, &past.ClientInsert{Name: args[1], Content: content, K: k}))
		if err != nil {
			return err
		}
		if !ir.OK {
			return fmt.Errorf("insert rejected after %d attempts: %s", ir.Attempts, ir.Reason)
		}
		fmt.Printf("%s\n", ir.FileID)
		fmt.Fprintf(os.Stderr, "inserted %d bytes in %d attempt(s)\n", len(content), ir.Attempts)
		return nil

	case "lookup", "exists":
		if len(args) != 2 {
			return fmt.Errorf("%s needs a fileId", args[0])
		}
		f, err := id.ParseFile(args[1])
		if err != nil {
			return err
		}
		lr, err := netsim.ReplyAs[past.ClientLookupReply](tr.InvokeAddr(node, &past.ClientLookup{File: f}))
		if err != nil {
			return err
		}
		if !lr.Found {
			return fmt.Errorf("file %s not found", f.Short())
		}
		if args[0] == "exists" {
			fmt.Printf("found: %d bytes, %d hops, cached=%v\n", lr.Size, lr.Hops, lr.FromCache)
			return nil
		}
		if _, err := os.Stdout.Write(lr.Content); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "retrieved %d bytes in %d hops (cached=%v)\n", lr.Size, lr.Hops, lr.FromCache)
		return nil

	case "trace":
		if len(args) != 2 {
			return fmt.Errorf("trace needs a fileId")
		}
		f, err := id.ParseFile(args[1])
		if err != nil {
			return err
		}
		// A fresh trace context rides the wire envelope to the access
		// point, which runs a hop-recorded lookup under it; every pastd
		// the route crosses appends its records, and the stitched route
		// comes back on the reply.
		tc := obs.TraceContext{ID: obs.NewTraceID(), Sampled: true, Budget: obs.DefaultTraceBudget}
		ctx := obs.ContextWithTrace(context.Background(), tc)
		lr, err := netsim.ReplyAs[past.ClientLookupReply](tr.InvokeAddrContext(ctx, node, &past.ClientLookup{File: f}))
		if err != nil {
			return err
		}
		trace := &obs.Trace{Op: "lookup", Key: f.Key(), Hops: lr.Trace, RouteHops: lr.Hops, OK: lr.Found}
		nodes := make(map[string]bool)
		for _, h := range lr.Trace {
			nodes[h.From.Short()] = true
		}
		fmt.Printf("trace %016x via %s\n", lr.TraceID, node)
		fmt.Printf("%s\n", trace.Detailed())
		fmt.Fprintf(os.Stderr, "found=%v hops=%d records=%d processes=%d cached=%v\n",
			lr.Found, lr.Hops, len(lr.Trace), len(nodes), lr.FromCache)
		return nil

	case "status":
		rep, err := netsim.ReplyAs[past.ClientObsReportReply](tr.InvokeAddr(node, &past.ClientObsReport{}))
		if err != nil {
			return err
		}
		s := rep.Snapshot
		capacity, used := s.Get(obs.CtrStoreCapacity), s.Get(obs.CtrStoreBytes)
		fmt.Printf("node %s  joined=%v\n", rep.Node, s.Get(obs.CtrOverlayJoined) == 1)
		fmt.Printf("storage: %d / %d bytes used (%.1f%%), %d free, %d replicas, %d pointers\n",
			used, capacity, 100*float64(used)/float64(max(1, capacity)), capacity-used,
			s.Get(obs.CtrStoreReplicas), s.Get(obs.CtrStorePointers))
		fmt.Printf("cache: %d entries, %d bytes, %d hits / %d misses\n",
			s.Get(obs.CtrCacheEntries), s.Get(obs.CtrCacheBytes), s.Get(obs.CtrCacheHits), s.Get(obs.CtrCacheMisses))
		fmt.Printf("overlay: leaf set %d, routing table %d entries, below-k events %d\n",
			s.Get(obs.CtrLeafSetSize), s.Get(obs.CtrTableEntries), s.Get(obs.CtrBelowKEvents))
		return nil

	case "stats":
		rep, err := netsim.ReplyAs[past.ClientObsReportReply](tr.InvokeAddr(node, &past.ClientObsReport{}))
		if err != nil {
			return err
		}
		s := rep.Snapshot
		for _, name := range s.Names() {
			fmt.Printf("%-32s %d\n", name, s.Counters[name])
		}
		if n := s.TotalRPCs(); n > 0 {
			fmt.Printf("rpc latency (%d samples):\n", n)
			for i, v := range s.RPCLat {
				if v == 0 {
					continue
				}
				if b := obs.LatencyBucketBound(i); b < 0 {
					fmt.Printf("  < +Inf        %d\n", v)
				} else {
					fmt.Printf("  < %-11s %d\n", b, v)
				}
			}
			fmt.Printf("  p50=%v p90=%v p99=%v p99.9=%v (interpolated)\n",
				s.RPCQuantile(50), s.RPCQuantile(90), s.RPCQuantile(99), s.RPCQuantile(99.9))
		}
		return nil

	case "reclaim":
		if len(args) != 2 {
			return fmt.Errorf("reclaim needs a fileId")
		}
		f, err := id.ParseFile(args[1])
		if err != nil {
			return err
		}
		rr, err := netsim.ReplyAs[past.ClientReclaimReply](tr.InvokeAddr(node, &past.ClientReclaim{File: f}))
		if err != nil {
			return err
		}
		if !rr.Found {
			return fmt.Errorf("file %s not found", f.Short())
		}
		fmt.Fprintf(os.Stderr, "reclaimed %d bytes\n", rr.Freed)
		return nil
	}
	return fmt.Errorf("unknown command %q", args[0])
}
