package main

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"past/internal/id"
	"past/internal/logstore"
	"past/internal/netsim"
	"past/internal/past"
	"past/internal/pastry"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

// startTestNode runs one bootstrapped PAST node over loopback TCP.
func startTestNode(t *testing.T) (*transport.TCP, *past.Node) {
	t.Helper()
	wire.RegisterWire()
	past.RegisterWire()
	rng := rand.New(rand.NewSource(1))
	var nid id.Node
	rng.Read(nid[:])
	tr, err := transport.New(nid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := past.DefaultConfig()
	cfg.Pastry = pastry.Config{B: 4, L: 8}
	cfg.K = 1
	n := past.NewWithStore(nid, tr, cfg, store.New(1<<20), 1)
	tr.Serve(n)
	n.Overlay().Bootstrap()
	t.Cleanup(func() { tr.Close() })
	return tr, n
}

func newClientTransport(t *testing.T) *transport.TCP {
	t.Helper()
	var cid id.Node
	rand.New(rand.NewSource(2)).Read(cid[:])
	ct, err := transport.New(cid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Close() })
	return ct
}

func TestRunCommandInsertLookupReclaim(t *testing.T) {
	server, _ := startTestNode(t)
	ct := newClientTransport(t)

	// insert reads stdin: substitute a pipe.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdin := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = oldStdin }()
	go func() {
		w.WriteString("pastctl content")
		w.Close()
	}()

	// Capture stdout for the fileId.
	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = wo
	insertErr := runCommand(ct, server.Addr(), 0, []string{"insert", "test.txt"})
	wo.Close()
	os.Stdout = oldStdout
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	out := make([]byte, 256)
	n, _ := ro.Read(out)
	fidHex := strings.TrimSpace(string(out[:n]))
	if _, err := id.ParseFile(fidHex); err != nil {
		t.Fatalf("insert did not print a fileId: %q", fidHex)
	}

	if err := runCommand(ct, server.Addr(), 0, []string{"exists", fidHex}); err != nil {
		t.Fatal(err)
	}
	if err := runCommand(ct, server.Addr(), 0, []string{"reclaim", fidHex}); err != nil {
		t.Fatal(err)
	}
	if err := runCommand(ct, server.Addr(), 0, []string{"exists", fidHex}); err == nil {
		t.Fatal("exists after reclaim must fail")
	}
}

func TestRunCommandErrors(t *testing.T) {
	ct := newClientTransport(t)
	for _, args := range [][]string{
		{"bogus"},
		{"insert"},
		{"lookup"},
		{"lookup", "nothex"},
		{"reclaim"},
		{"reclaim", "zz"},
	} {
		if err := runCommand(ct, "127.0.0.1:1", 0, args); err == nil {
			t.Fatalf("args %v must fail", args)
		}
	}
}

func TestRunCommandStatus(t *testing.T) {
	server, node := startTestNode(t)
	if _, err := node.Insert(past.InsertSpec{Name: "s", Content: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	ct := newClientTransport(t)
	if err := runCommand(ct, server.Addr(), 0, []string{"status"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommandStats(t *testing.T) {
	server, node := startTestNode(t)
	if _, err := node.Insert(past.InsertSpec{Name: "s", Content: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	ct := newClientTransport(t)

	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = wo
	statsErr := runCommand(ct, server.Addr(), 0, []string{"stats"})
	wo.Close()
	os.Stdout = oldStdout
	if statsErr != nil {
		t.Fatal(statsErr)
	}
	out, err := io.ReadAll(ro)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{"inserts_total", "store_capacity_bytes", "msgs_in_total"} {
		if !strings.Contains(s, want) {
			t.Fatalf("stats output missing %q:\n%s", want, s)
		}
	}
}

// stubAccessPoint answers every RPC with the same reply, whatever was
// asked: a stand-in for a confused or hostile node.
type stubAccessPoint struct{ reply any }

func (s stubAccessPoint) Deliver(id.Node, any) (any, error) { return s.reply, nil }

// TestRunCommandRejectsBadReplies: an access point that answers with a
// reply of the wrong type, or with none, fails the command with
// netsim.ErrBadReply instead of panicking the client.
func TestRunCommandRejectsBadReplies(t *testing.T) {
	stdin, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	oldStdin := os.Stdin
	os.Stdin = stdin
	defer func() { os.Stdin = oldStdin }()

	fid := id.NewFile("stub", nil, 1).String()
	for _, reply := range []any{&past.ClientStatusReply{}, nil} {
		wire.RegisterWire()
		past.RegisterWire()
		srv, err := transport.New(id.NodeFromUint64(3), "127.0.0.1:0", topology.Point{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(stubAccessPoint{reply})
		ct := newClientTransport(t)
		cmds := [][]string{{"insert", "stub"}, {"lookup", fid}, {"exists", fid}, {"trace", fid}, {"reclaim", fid}, {"stats"}}
		if reply == nil {
			cmds = append(cmds, []string{"status"})
		}
		for _, args := range cmds {
			if err := runCommand(ct, srv.Addr(), 0, args); !errors.Is(err, netsim.ErrBadReply) {
				t.Errorf("%v answered with %T: got %v, want ErrBadReply", args, reply, err)
			}
		}
		srv.Close()
	}
}

// TestFsckExitCodes: 0 on a clean store, 1 once a checkpoint byte is
// flipped, 2 on a usage error or a missing directory.
func TestFsckExitCodes(t *testing.T) {
	dir := t.TempDir()
	s, err := logstore.Open(dir, logstore.Options{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(store.Entry{File: id.NewFile("fsck", nil, 1), Size: 5, Content: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code := runFsck([]string{"-q", dir}); code != 0 {
		t.Fatalf("clean store: exit %d, want 0", code)
	}
	ckp := filepath.Join(dir, "checkpoint.ckp")
	b, err := os.ReadFile(ckp)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(ckp, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runFsck([]string{"-q", dir}); code != 1 {
		t.Fatalf("damaged checkpoint: exit %d, want 1", code)
	}
	if code := runFsck(nil); code != 2 {
		t.Fatalf("no directory: exit %d, want 2", code)
	}
	if code := runFsck([]string{filepath.Join(dir, "missing")}); code != 2 {
		t.Fatalf("missing directory: exit %d, want 2", code)
	}
}
