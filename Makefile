# PAST in Go — development targets. Everything is stdlib-only; plain
# `go build ./...` works without this Makefile.

GO ?= go

.PHONY: all build test test-times loc test-race race bench experiments experiments-full soak-compare trace-demo fsck-demo overload-demo cache-demo cluster-demo fleet-obs-demo ec-demo cache-bench fuzz alloc-guard no-gob one-coder one-path dead-exports bench-smoke vet fmt clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 uncached, read from `go test -json`: each package's wall
# time, slowest first; the ten slowest top-level tests; and the whole
# run's wall time and CPU time (user + system of go test, the compiler
# and every test binary), so the suite reports where its own time goes.
# The output of failing packages follows and fails the target.
test-times:
	@bash -c 'TIMEFORMAT="%R %U %S"; { time $(GO) test -count=1 -json ./... > /tmp/past-test-times.json 2>&1; } 2> /tmp/past-test-times.rusage'; status=$$?; \
	awk 'function str(name) { if (!match($$0, "\"" name "\":\"[^\"]*\"")) return ""; return substr($$0, RSTART + length(name) + 4, RLENGTH - length(name) - 5) } \
		!/^\{/ { other = other $$0 "\n"; next } \
		{ action = str("Action"); pkg = str("Package"); test = str("Test"); el = "" } \
		match($$0, /"Elapsed":[0-9.e+-]+/) { el = substr($$0, RSTART + 10, RLENGTH - 10) + 0 } \
		action == "output" { o = substr($$0, index($$0, "\"Output\":\"") + 10); sub(/"}$$/, "", o); \
			gsub(/\\\\/, "\001", o); gsub(/\\n/, "\n", o); gsub(/\\t/, "\t", o); gsub(/\\"/, "\"", o); \
			gsub(/\001/, "\\", o); out[pkg] = out[pkg] o } \
		action == "fail" && test == "" { failed[pkg] = 1 } \
		(action == "pass" || action == "fail") && el != "" { \
			if (test == "") { printf "%8.2fs  %s\n", el, pkg | "sort -rn"; total += el } \
			else if (test !~ /\//) printf "%8.2fs  %s %s\n", el, pkg, test | "sort -rn | head -10 > /tmp/past-test-times.slow" } \
		END { close("sort -rn"); close("sort -rn | head -10 > /tmp/past-test-times.slow"); \
			printf "%8.2fs  total of the packages\n\nslowest tests:\n", total; \
			while ((getline line < "/tmp/past-test-times.slow") > 0) print line; \
			getline line < "/tmp/past-test-times.rusage"; split(line, t, " "); \
			printf "\nsuite: %.1fs wall, %.1fs CPU (%.1fs user, %.1fs system)\n", t[1], t[2] + t[3], t[2], t[3]; \
			for (p in failed) printf "\nFAIL %s:\n%s", p, out[p]; printf "%s", other }' /tmp/past-test-times.json; \
	exit $$status

# The size figures ROADMAP aim 2 tracks, regenerated from the tree
# (informational: no thresholds, the re-anchor reads the trend): lines,
# packages, binaries, the flags of every binary (read off its -h) and
# their total, past.Config fields, the knob count: exported field
# names, each name counted, of the *Config, *Options and *Spec structs
# under internal/, and the dead-exports allowlist's length.
loc:
	@printf '%6d  non-test Go lines outside bench/\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -print0 | xargs -0 cat | wc -l)"
	@printf '%6d  internal/ packages\n' "$$($(GO) list ./internal/... | wc -l)"
	@printf '%6d  cmd/ binaries\n' "$$($(GO) list ./cmd/... | wc -l)"
	@bin=$$(mktemp -d) && $(GO) build -o $$bin/ ./cmd/... && total=0 && \
	for b in pastd past-chaos past-load past-cluster 'past-cluster top' past-bench pastctl; do \
		n=$$($$bin/$$b -h 2>&1 | grep -c '^  -'); total=$$((total + n)); \
		printf '%6d  %s flags\n' "$$n" "$$b"; \
	done; printf '%6d  flags in all\n' "$$total"; rm -rf $$bin
	@printf '%6d  past.Config fields\n' "$$(awk '/^type Config struct \{/ { f = 1; next } f && /^\}/ { exit } f && /^\t[A-Z][A-Za-z0-9]*[ ,]/ { n++ } END { print n }' internal/past/node.go)"
	@printf '%6d  exported *Config/*Options/*Spec fields under internal/\n' "$$(find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '\
		/^type [A-Za-z0-9_]*(Config|Options|Spec) struct \{$$/ { f = 1; next } f && /^\}/ { f = 0; next } \
		f && match($$0, /^\t[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[ \t]/) { \
			k = split(substr($$0, 2, RLENGTH - 2), name, /, */); for (i = 1; i <= k; i++) if (name[i] ~ /^[A-Z]/) n++ } \
		END { print n + 0 }')"
	@printf '%6d  dead-exports allowlist entries (exports_test.go)\n' "$$(awk '/^var deadExportAllow = / { f = 1; next } f && /^\}/ { exit } f && /^\t"/ { n++ } END { print n + 0 }' exports_test.go)"

# Full race-detector sweep. -short skips the trace-driven experiment
# runs (minutes each under the race detector); every protocol and
# concurrency path still executes.
test-race:
	$(GO) test -race -short ./...

race:
	$(GO) test -race ./internal/transport/ ./internal/netsim/ ./internal/pastry/ ./internal/past/

# The ablations of DESIGN.md section 5 (leaf-set size, diverted-replica
# target, cache policy) and Table 2 at tiny scale, each diffed against
# its golden render with past-bench's wall time stripped from the
# header: the only runs that reach d2-d4, l = 8, 16 and 64, random
# diversion and the LRU and FIFO caches. About fifteen seconds.
bench:
	@bin=$$(mktemp -d) && $(GO) build -o $$bin/ ./cmd/past-bench && \
	for e in table2 ablation; do \
		$$bin/past-bench -exp $$e -scale tiny > $$bin/$$e.txt || exit 1; \
		sed -E '1s/, [0-9.]+s\) ====$$/) ====/' $$bin/$$e.txt | \
			diff -u internal/experiments/testdata/$$e-tiny.golden - || exit 1; \
		echo "$$e: matches internal/experiments/testdata/$$e-tiny.golden"; \
	done; rm -rf $$bin

# Regenerate every table, figure and ablation at the default 300-node scale.
experiments:
	$(GO) run ./cmd/past-bench -exp all -scale bench | tee results_bench.txt

# The paper's scale: 2250 nodes, ~1.8M files. Hours on a small machine.
experiments-full:
	$(GO) run ./cmd/past-bench -exp all -scale full | tee results_full.txt

# Paired chaos soaks over one schedule: fail-fast baseline vs per-hop
# reroute plus partial inserts, plus the tests that assert the layer's
# strict improvement, its determinism and its hold on acknowledged files
# behind admission control. Finishes in seconds.
soak-compare:
	$(GO) run ./cmd/past-chaos -compare -drop 0.10 -seed 3
	$(GO) test -short -run 'TestSoakResilience' -v ./internal/experiments/

# Traced soak demo: run a small chaos soak with per-hop tracing and the
# JSONL event stream on, then validate that every emitted line parses.
# Fails if the stream is malformed. Finishes in seconds.
trace-demo:
	$(GO) run ./cmd/past-chaos -nodes 25 -files 25 -ticks 6 -resilience \
		-trace 2 -events-out /tmp/past-trace-demo.jsonl
	$(GO) run ./cmd/past-chaos -check-events /tmp/past-trace-demo.jsonl

# Storage crash demo: soak a log-structured store through kill/truncate/
# recover cycles (populating it in the process), verify it offline with
# fsck, then reopen it read-only via a final soak life. Finishes in
# seconds.
fsck-demo:
	rm -rf /tmp/past-fsck-demo
	$(GO) run ./cmd/past-chaos -crash -crash-lives 4 -crash-ops 300 \
		-crash-dir /tmp/past-fsck-demo -keep
	$(GO) run ./cmd/pastctl fsck /tmp/past-fsck-demo

# Overload-protection demo: a deterministic virtual-time offered-rate
# sweep that asserts shedding strictly beats the unbounded queue at 2x
# capacity (higher goodput, lower p99), then reruns one sim and
# requires a bit-identical fingerprint. Finishes in seconds.
overload-demo:
	$(GO) run ./cmd/past-load -sim -check -seed 1 -nodes 10 -node-rate 20 -requests 1500
	$(GO) run ./cmd/past-load -sim -verify -seed 1 -nodes 10 -node-rate 20 -rate 400 -requests 1500

# Live-fleet demo: boot 5 REAL pastd processes on loopback (the
# past-cluster binary re-executes itself as the daemons), SIGKILL and
# restart 2 of them on the seeded schedule, audit the live replica
# invariants with the emulator's checker, verify zero acked-write loss
# byte for byte, and fsck every store after every process life. The
# per-node data dirs and captured process logs land under
# /tmp/past-cluster-demo for post-mortem on failure. Finishes in
# seconds — well under a minute.
cluster-demo:
	rm -rf /tmp/past-cluster-demo /tmp/past-cluster-demo.jsonl
	$(GO) run ./cmd/past-cluster -nodes 5 -seed 1 -scenario kill \
		-rounds 2 -kill-rate 0.2 -check -v -data /tmp/past-cluster-demo \
		-events-out /tmp/past-cluster-demo.jsonl
	$(GO) run ./cmd/past-chaos -check-events /tmp/past-cluster-demo.jsonl

# Erasure-coding demo: boot a small REAL fleet in EC mode (rs(3,2):
# each object becomes 5 third-cost fragments on distinct nodes, any 3
# reconstruct), SIGKILL fragment holders on the seeded schedule, and
# audit that every acked write survives byte for byte with lost
# fragments re-created by the lazy bandwidth-capped repair queue — the
# fragment-loss invariant is checked every round. Then the
# deterministic repair-rate-vs-durability sweep: coded storage vs k=3
# replication at equal 3.0x overhead, with and without repair.
# Finishes in seconds.
ec-demo:
	rm -rf /tmp/past-ec-demo
	$(GO) run ./cmd/past-cluster -nodes 6 -seed 1 -scenario kill \
		-rounds 2 -kill-rate 0.2 -ec 3,2 -ec-repair-budget 512KB \
		-check -v -data /tmp/past-ec-demo
	$(GO) run ./cmd/past-chaos -ec-durability -verify

# Fleet observability demo: boot a real 5-process cluster, drive client
# traffic through it, then assert the aggregation plane end to end —
# the combined /metrics endpoint serves per-node series plus the
# node="fleet" aggregate, and a client-initiated trace comes back
# stitched across at least two processes with per-hop RPC latencies.
# Finishes in seconds.
fleet-obs-demo:
	$(GO) test -run TestFleetObsLive -count=1 -v ./internal/fleetobs/

# Cache-engine demo: a deterministic virtual-time sweep of the three
# cache configurations (legacy single structure, engine with a
# capped RAM tier, same RAM plus a flash tier) printing the per-tier
# hit-rate table, and asserting the flash tier beats capped RAM alone.
# Finishes in seconds.
cache-demo:
	$(GO) run ./cmd/past-load -sim -cache-check -seed 1 -requests 1500 -files 192 -cache-ram 32768

# Cache-engine microbenchmarks: parallel Get/Insert throughput of the
# engine's one-lock RAM tier with 8 goroutines contending.
cache-bench:
	$(GO) test -run '^$$' -bench 'GetParallel|InsertParallel' -cpu 8 ./internal/cachengine/

# Decoder fuzz smoke: ten seconds of coverage-guided input on each
# fuzz target — the wire frames, the logstore record that both the
# WAL and the checkpoint are made of, the EC fragment map, a flash
# segment's bytes after its magic and the four certificate bodies —
# starting from the checked-in corpus of one frame per message type,
# one record per record type and one map per parameter set, and from
# one signed body of each certificate kind. Any panic, hang or input
# that does not re-encode to itself fails; a flash segment must open,
# within its file's size.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/past/
	$(GO) test -run '^$$' -fuzz FuzzDecodeWALRecord -fuzztime 10s ./internal/logstore/
	$(GO) test -run '^$$' -fuzz FuzzFlashSegment -fuzztime 10s ./internal/logstore/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMap -fuzztime 10s ./internal/ec/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCert -fuzztime 10s ./internal/cert/

# Allocation budgets of the one-copy payload path: a durable insert
# makes one allocation, a fragment map encodes in one, and on netsim a
# coded insert allocates its parity and the stores' copies of its map
# and a lookup its payload — no data fragment is copied. And of the
# emulator's insert and lookup paths: the in-memory file table
# allocates nothing per size-only replica and one copy per payload, a
# routed size-only netsim insert,
# diverting or not, stays within its allocation count, and an untraced
# routed lookup pays nothing for trace intent riding the context. And
# of the RPC path: decoding a request that fits the read buffer
# allocates only its message and strings, a Ping over loopback TCP
# allocates nothing, and a 64 KiB insert RPC, whose request is borrowed,
# at most 1 KiB. The same tests run in tier-1; this target runs exactly
# them, uncached.
alloc-guard:
	$(GO) test -count=1 -run 'TestAllocBudget|TestECEncoderIsShared' ./internal/wire/ ./internal/transport/ ./internal/store/ ./internal/logstore/ ./internal/ec/ ./internal/past/

# encoding/gob left the binary with the gob wire and the gob
# checkpoint; every byte that crosses a socket or a disk goes through
# internal/wire's bounds-checked Reader. Fail if gob comes back as a
# dependency of any package.
no-gob:
	@if $(GO) list -deps ./... | grep -x encoding/gob; then \
		echo "encoding/gob is a dependency again"; exit 1; fi

# One erasure code: internal/past's EC mode is the only coder (paper
# section 3.6; internal/frag only stripes, section 3.4). Fail if any
# non-test package but internal/past imports the Reed-Solomon codec.
one-coder:
	@bad=$$($(GO) list -f '{{range .Imports}}{{if eq . "past/internal/rs"}}{{$$.ImportPath}}{{"\n"}}{{end}}{{end}}' ./... | grep -vx past/internal/past); \
	if [ -n "$$bad" ]; then echo "past/internal/rs imported outside past/internal/past by:" $$bad; exit 1; fi

# One call path: a node reaches itself the way it reaches a peer,
# through Node.call, so the dispatch switch in internal/past/app.go is
# the only caller of the message handlers. Fail if any other non-test
# file of internal/past calls a handle* method.
one-path:
	@bad=$$(grep -n '\.handle[A-Z][A-Za-z]*(' $$(ls internal/past/*.go | grep -v '_test\.go$$' | grep -vx internal/past/app.go)); \
	if [ -n "$$bad" ]; then echo "handle* called outside internal/past/app.go's dispatch:"; echo "$$bad"; exit 1; fi

# No export without a caller: list every exported func, method, type,
# var and const under internal/ that no non-test file outside bench/
# uses, and fail on any that exports_test.go's allowlist does not name
# with a reason, or on an allowlist entry that is gone or has gained a
# caller. The same test runs in tier-1; this target prints the hits.
dead-exports:
	$(GO) test -count=1 -run '^TestNoDeadExports$$' -v .

# The benchmark is its own module, so `go build ./...` never compiles
# it: vet and test it, then run every workload once on tiny fleets, so
# an internal API change cannot silently break bench/.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	bash bench/run.sh --smoke --seconds 1

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
