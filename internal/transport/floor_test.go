//go:build unix

package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"past/internal/id"
	"past/internal/pastry"
	"past/internal/topology"
)

// BenchmarkLoopbackFloor prices a small RPC over loopback TCP twice:
// as a raw framed echo over net.Conn — a 4-byte length prefix, a 60-byte
// body, an 8 KiB bufio reader and one server goroutine per connection,
// about what a Ping costs on the wire — and as TCP.Invoke of a Ping to
// an endpoint that answers Pong. The gap between the two is all that a
// different connection or write discipline in this package could win
// per RPC. Both sides run with one and with two concurrent callers and
// report the process's CPU time per RPC (client and server together)
// from getrusage, next to the wall time per RPC.
func BenchmarkLoopbackFloor(b *testing.B) {
	for _, callers := range []int{1, 2} {
		b.Run(fmt.Sprintf("raw/callers=%d", callers), func(b *testing.B) {
			runFloor(b, callers, newRawEcho(b))
		})
		b.Run(fmt.Sprintf("transport/callers=%d", callers), func(b *testing.B) {
			runFloor(b, callers, newTransportEcho(b))
		})
	}
}

// runFloor shares b.N round trips among callers goroutines, each with
// its own call function from newCaller.
func runFloor(b *testing.B, callers int, newCaller func() func() error) {
	calls := make([]func() error, callers)
	for i := range calls {
		calls[i] = newCaller()
		if err := calls[i](); err != nil { // connect outside the timed loop
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, callers)
	b.ResetTimer()
	cpu0 := cpuTime(b)
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := call(); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime(b) - cpu0
	b.StopTimer()
	if err := errors.Join(errs...); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-us/rpc")
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const floorBody = 60

// newRawEcho starts a framed echo server and returns a constructor of
// callers, each on its own connection.
func newRawEcho(b *testing.B) func() func() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	b.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rawEcho(c)
			}()
		}
	}()
	return func() func() error {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		r := bufio.NewReaderSize(c, 8<<10)
		req := binary.BigEndian.AppendUint32(nil, floorBody)
		req = append(req, make([]byte, floorBody)...)
		resp := make([]byte, len(req))
		return func() error {
			if _, err := c.Write(req); err != nil {
				return err
			}
			_, err := io.ReadFull(r, resp)
			return err
		}
	}
}

// rawEcho answers every length-prefixed frame on c with itself.
func rawEcho(c net.Conn) {
	r := bufio.NewReaderSize(c, 8<<10)
	buf := make([]byte, 4+floorBody)
	for {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(buf[:4])
		if int(n) > len(buf)-4 {
			return
		}
		if _, err := io.ReadFull(r, buf[4:4+n]); err != nil {
			return
		}
		if _, err := c.Write(buf[:4+n]); err != nil {
			return
		}
	}
}

// newTransportEcho serves a Pong-answering endpoint on one TCP and
// returns a constructor of callers that Invoke a Ping through another,
// sharing its connection pool as a node's concurrent calls do.
func newTransportEcho(b *testing.B) func() func() error {
	register()
	srvID, cliID := id.NodeFromUint64(1), id.NodeFromUint64(2)
	srv, err := New(srvID, "127.0.0.1:0", topology.Point{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	srv.Serve(epFunc(func(id.Node, any) (any, error) { return &pastry.Pong{}, nil }))
	cli, err := New(cliID, "127.0.0.1:0", topology.Point{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cli.Close() })
	cli.AddEntry(srv.SelfEntry())
	ctx := context.Background()
	return func() func() error {
		return func() error {
			_, err := cli.Invoke(ctx, cliID, srvID, &pastry.Ping{})
			return err
		}
	}
}
