package daemon

import (
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"past/internal/id"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/store"
	"past/internal/topology"
	"past/internal/transport"
	"past/internal/wire"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"512", 512, true},
		{"512B", 512, true},
		{"4KB", 4 << 10, true},
		{"64MB", 64 << 20, true},
		{"2GB", 2 << 30, true},
		{" 8 MB ", 8 << 20, true},
		{"1gb", 1 << 30, true},
		{"", 0, false},
		{"abc", 0, false},
		{"-5MB", 0, false},
		{"12TB", 0, false}, // unsupported suffix -> parse failure
		// The product must fit in an int64, not wrap.
		{"9223372036854775807", math.MaxInt64, true},
		{"8589934591GB", 8589934591 << 30, true},
		{"8589934592GB", 0, false},  // 2^63: would wrap to MinInt64
		{"17179869184GB", 0, false}, // 2^64: would wrap to 0
		{"9000000000GB", 0, false},  // would wrap negative
		{"8796093022208MB", 0, false},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("parseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("parseSize(%q) succeeded; want error", c.in)
		}
	}
}

// TestNodeIDFromSeed pins the seed -> nodeId derivation to the one Run
// performs, so orchestrators that predict identities stay correct.
func TestNodeIDFromSeed(t *testing.T) {
	var want id.Node
	r := mrand.New(mrand.NewSource(42))
	r.Read(want[:])
	if got := NodeIDFromSeed(42); got != want {
		t.Fatalf("NodeIDFromSeed(42) = %s, want %s", got, want)
	}
	if NodeIDFromSeed(1) == NodeIDFromSeed(2) {
		t.Fatal("distinct seeds produced the same node id")
	}
}

// TestDebugMux drives the -debug-addr endpoint: /metrics serves the
// node's registry in the Prometheus text format, /healthz tracks the
// readiness flag and join state, and the pprof handlers answer under
// /debug/pprof/.
func TestDebugMux(t *testing.T) {
	wire.RegisterWire()
	past.RegisterWire()
	rng := mrand.New(mrand.NewSource(3))
	var nid id.Node
	rng.Read(nid[:])
	tr, err := transport.New(nid, "127.0.0.1:0", topology.Point{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := past.DefaultConfig()
	cfg.K = 1
	tracer := obs.NewTracer(1, 8)
	cfg.Tracer = tracer
	node := past.NewWithStore(nid, tr, cfg, store.New(1<<20), 1)
	tr.Serve(node)

	var ready atomic.Bool
	srv := httptest.NewServer(NewDebugMux(node, tracer, &ready))
	defer srv.Close()

	// Before Bootstrap and before the ready flag: 503.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz before join: status %d, want 503", resp.StatusCode)
	}

	node.Overlay().Bootstrap()
	// Joined but the daemon has not flipped the flag yet: still 503.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz before ready: status %d, want 503", resp.StatusCode)
	}

	ready.Store(true)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), nid.Short()) {
		t.Fatalf("GET /healthz ready: status %d body %q", resp.StatusCode, body)
	}

	if _, err := node.Insert(past.InsertSpec{Name: "m", Content: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	out := string(mb)
	for _, want := range []string{
		"# TYPE past_inserts_total counter",
		"past_inserts_total{node=\"" + nid.Short() + "\"} 1",
		"past_store_capacity_bytes",
		"# TYPE past_rpc_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: status %d", resp.StatusCode)
	}

	// The sampled-trace ring answers (the insert above was sampled at
	// -trace-every 1).
	resp, err = http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(tb), "insert") {
		t.Fatalf("GET /traces: status %d body %q", resp.StatusCode, tb)
	}

	// The index answers only at "/"; unknown paths are a real 404, not
	// a 200 echo of the index (a scraper probing a wrong path must see
	// the error).
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(ib), "/traces") {
		t.Fatalf("GET /: status %d body %q", resp.StatusCode, ib)
	}
	resp, err = http.Get(srv.URL + "/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /no-such-endpoint: status %d, want 404", resp.StatusCode)
	}
}
