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

// captureStdout runs a command with stdout redirected and returns what
// it printed.
func captureStdout(t *testing.T, run func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := run()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
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

	out, err := captureStdout(t, func() error {
		return runCommand(ct, server.Addr(), 0, []string{"insert", "test.txt"})
	})
	if err != nil {
		t.Fatal(err)
	}
	fidHex := strings.TrimSpace(out)
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
	out, err := captureStdout(t, func() error {
		return runCommand(ct, server.Addr(), 0, []string{"status"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// One node with k=1 holds the one 3-byte replica it inserted.
	for _, want := range []string{
		"node " + node.ID().String() + "  joined=true\n",
		"storage: 3 / 1048576 bytes used (0.0%), 1048573 free, 1 replicas, 0 pointers\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCommandStats(t *testing.T) {
	server, node := startTestNode(t)
	if _, err := node.Insert(past.InsertSpec{Name: "s", Content: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	ct := newClientTransport(t)
	out, err := captureStdout(t, func() error {
		return runCommand(ct, server.Addr(), 0, []string{"stats"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inserts_total", "store_capacity_bytes", "msgs_in_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
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
	for _, reply := range []any{&past.ClientReclaimReply{}, nil} {
		wire.RegisterWire()
		past.RegisterWire()
		srv, err := transport.New(id.NodeFromUint64(3), "127.0.0.1:0", topology.Point{})
		if err != nil {
			t.Fatal(err)
		}
		srv.Serve(stubAccessPoint{reply})
		ct := newClientTransport(t)
		cmds := [][]string{{"insert", "stub"}, {"lookup", fid}, {"exists", fid}, {"trace", fid}, {"stats"}, {"status"}}
		if reply == nil {
			cmds = append(cmds, []string{"reclaim", fid})
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
