package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"past/internal/daemon"
	"past/internal/id"
	"past/internal/logstore"
	"past/internal/obs"
	"past/internal/past"
	"past/internal/transport"
)

// Fixed daemon settings of every fleet. Failure detection is the churn
// clock, so fleets keep alive and maintain far more often than pastd's
// production defaults (5s, off).
const (
	nodeCapacity = "64MB"                 // each daemon's -capacity
	replicas     = 3                      // each daemon's -k
	keepalive    = 500 * time.Millisecond // each daemon's -keepalive
	maintain     = time.Second            // each daemon's -maintain
	readyTimeout = 30 * time.Second       // bound on one node's boot-to-healthy wait
	exitTimeout  = 20 * time.Second       // bound on a graceful leave
)

// Config shapes a fleet.
type Config struct {
	// Nodes is the fleet size. Required.
	Nodes int
	// Seed fixes node identities (each process gets a derived -seed) and
	// the scenario schedule. Required nonzero for reproducible runs.
	Seed int64
	// Dir is the base directory for per-node data dirs and captured
	// logs. Empty: a fresh temp directory, which Run removes after a
	// passing run.
	Dir string
	// Command launches the daemon (default SelfCommand()).
	Command Command
	// EC, when non-empty ("m,n"), runs the fleet in erasure-coded
	// storage mode: every daemon gets -ec, inserts fragment over the
	// leaf set, and lost fragments are re-created by lazy repair.
	EC string
	// ECRepairBudget caps each daemon's per-maintenance-pass repair
	// bytes (passed as -ec-repair-budget; empty: uncapped).
	ECRepairBudget string
	// Out receives orchestrator narration (nil: discarded).
	Out io.Writer
	// Events receives the structured JSONL event stream (nil: none).
	Events *obs.EventLog
}

func (c *Config) withDefaults() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: Nodes must be > 0")
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Command.Path == "" {
		cmd, err := SelfCommand()
		if err != nil {
			return fmt.Errorf("cluster: self command: %w", err)
		}
		c.Command = cmd
	}
	return nil
}

// Cluster is a running fleet.
type Cluster struct {
	cfg    Config
	dir    string
	tmpDir bool
	Procs  []*Proc
	client *transport.TCP
}

// Start boots the fleet: node 0 bootstraps a new network, every other
// node joins via node 0 — each start gated on the previous node
// reporting ready at /healthz, so join order is deterministic and the
// overlay never sees a half-up bootstrap peer.
func Start(cfg Config) (*Cluster, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	dir, tmp := cfg.Dir, false
	if dir == "" {
		d, err := os.MkdirTemp("", "past-cluster-")
		if err != nil {
			return nil, err
		}
		dir, tmp = d, true
	}
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return nil, err
	}

	addrs, err := freePorts(2 * cfg.Nodes)
	if err != nil {
		return nil, err
	}

	client, err := daemon.NewClient()
	if err != nil {
		return nil, err
	}

	c := &Cluster{cfg: cfg, dir: dir, tmpDir: tmp, client: client}
	for i := 0; i < cfg.Nodes; i++ {
		seed := cfg.Seed*1_000_003 + int64(i) + 1
		if seed == 0 {
			seed = int64(i) + 1
		}
		p := &Proc{
			Index:     i,
			Seed:      seed,
			ID:        daemon.NodeIDFromSeed(seed),
			Addr:      addrs[2*i],
			DebugAddr: addrs[2*i+1],
			DataDir:   filepath.Join(dir, fmt.Sprintf("node%02d", i)),
			LogPath:   filepath.Join(dir, "logs", fmt.Sprintf("node%02d.log", i)),
		}
		c.Procs = append(c.Procs, p)
	}

	for i, p := range c.Procs {
		join := ""
		if i > 0 {
			join = c.Procs[0].Addr
		}
		if err := p.start(cfg.Command, c.daemonArgs(p, join)); err != nil {
			c.Close()
			return nil, err
		}
		if err := p.waitReady(readyTimeout); err != nil {
			c.Close()
			return nil, err
		}
		fmt.Fprintf(cfg.Out, "cluster: node %d (%s) up on %s\n", i, p.ID.Short(), p.Addr)
	}
	return c, nil
}

// daemonArgs builds one node's daemon argv. Positions on the proximity
// plane are a deterministic function of the index, so routing locality
// is reproducible across runs.
func (c *Cluster) daemonArgs(p *Proc, joinAddr string) []string {
	args := []string{
		"-addr", p.Addr,
		"-debug-addr", p.DebugAddr,
		"-data", p.DataDir,
		"-capacity", nodeCapacity,
		"-k", strconv.Itoa(replicas),
		"-seed", strconv.FormatInt(p.Seed, 10),
		"-keepalive", keepalive.String(),
		"-maintain", maintain.String(),
		"-x", strconv.FormatFloat(float64(10+20*(p.Index%8)), 'f', -1, 64),
		"-y", strconv.FormatFloat(float64(10+20*(p.Index/8)), 'f', -1, 64),
	}
	if c.cfg.EC != "" {
		args = append(args, "-ec", c.cfg.EC)
		if c.cfg.ECRepairBudget != "" {
			args = append(args, "-ec-repair-budget", c.cfg.ECRepairBudget)
		}
	}
	if joinAddr != "" {
		args = append(args, "-join", joinAddr)
	}
	return args
}

// LiveIndexes returns the indexes of running nodes, ascending.
func (c *Cluster) LiveIndexes() []int {
	var out []int
	for i, p := range c.Procs {
		if p.alive() {
			out = append(out, i)
		}
	}
	return out
}

// Kill delivers SIGKILL to node i — the crash fault: no leave, no
// flush, the logstore must recover — and waits for the process to die.
func (c *Cluster) Kill(i int) error {
	p := c.Procs[i]
	if err := p.signal(syscall.SIGKILL); err != nil {
		return err
	}
	if _, ok := p.waitExit(10 * time.Second); !ok {
		return fmt.Errorf("cluster: node %d survived SIGKILL", i)
	}
	c.event(obs.Event{Kind: "fault", Node: p.ID.Short(), Op: "sigkill", N: int64(i)})
	return nil
}

// Terminate delivers SIGTERM to node i — the graceful leave: the node
// offloads replicas and closes its store clean — and waits for exit.
// A leave that outlives exitTimeout is escalated to SIGKILL and
// reported as an error.
func (c *Cluster) Terminate(i int) error {
	p := c.Procs[i]
	if err := p.signal(syscall.SIGTERM); err != nil {
		return err
	}
	exitErr, ok := p.waitExit(exitTimeout)
	if !ok {
		p.signal(syscall.SIGKILL)
		p.waitExit(10 * time.Second)
		return fmt.Errorf("cluster: node %d graceful leave exceeded %v; killed", i, exitTimeout)
	}
	if exitErr != nil {
		return fmt.Errorf("cluster: node %d graceful leave exited dirty: %v; log: %s", i, exitErr, p.LogPath)
	}
	c.event(obs.Event{Kind: "fault", Node: p.ID.Short(), Op: "sigterm", N: int64(i)})
	return nil
}

// Restart boots a new life of node i (which must be down), rejoining
// through a live peer, with capped backoff between attempts — the
// supervisor's restart policy. The node keeps its identity (same seed,
// same address) and its data directory, so a log store recovers its
// previous life's replicas.
func (c *Cluster) Restart(i int) error {
	p := c.Procs[i]
	if p.alive() {
		return fmt.Errorf("cluster: node %d is still running", i)
	}
	join := ""
	for _, li := range c.LiveIndexes() {
		if li != i {
			join = c.Procs[li].Addr
			break
		}
	}
	backoff := 200 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := p.start(c.cfg.Command, c.daemonArgs(p, join)); err != nil {
			lastErr = err
			continue
		}
		if err := p.waitReady(readyTimeout); err != nil {
			lastErr = err
			if p.alive() {
				p.signal(syscall.SIGKILL)
				p.waitExit(10 * time.Second)
			}
			continue
		}
		p.Restarts++
		c.event(obs.Event{Kind: "fault", Node: p.ID.Short(), Op: "restart", N: int64(i)})
		return nil
	}
	return fmt.Errorf("cluster: node %d restart failed after backoff: %v", i, lastErr)
}

// Fsck runs the offline store checker on node i's data directory. The
// process must be down.
func (c *Cluster) Fsck(i int) error {
	p := c.Procs[i]
	if p.alive() {
		return fmt.Errorf("cluster: node %d is running; fsck needs the store closed", i)
	}
	rep, err := logstore.Fsck(p.DataDir)
	if err != nil {
		return fmt.Errorf("cluster: fsck node %d: %w", i, err)
	}
	if !rep.OK() {
		return fmt.Errorf("cluster: fsck node %d found %d error(s):\n%s", i, len(rep.Errors), rep)
	}
	return nil
}

// invoke sends a client RPC to node i with one transparent retry on a
// freshly restarted peer still settling (the transport already retries
// stale pooled conns once; this covers the dial-refused window).
func (c *Cluster) invoke(i int, msg any) (any, error) {
	return c.invokeCtx(context.Background(), i, msg)
}

func (c *Cluster) invokeCtx(ctx context.Context, i int, msg any) (any, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		reply, err := c.client.InvokeAddrContext(ctx, c.Procs[i].Addr, msg)
		if err == nil {
			return reply, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// InsertVia inserts content through node i as the access point.
func (c *Cluster) InsertVia(i int, name string, content []byte) (id.File, error) {
	reply, err := c.invoke(i, &past.ClientInsert{Name: name, Content: content})
	if err != nil {
		return id.File{}, err
	}
	ir, ok := reply.(*past.ClientInsertReply)
	if !ok {
		return id.File{}, fmt.Errorf("cluster: unexpected insert reply %T", reply)
	}
	if !ir.OK {
		return id.File{}, fmt.Errorf("cluster: insert rejected: %s", ir.Reason)
	}
	return ir.FileID, nil
}

// LookupVia retrieves f through node i as the access point.
func (c *Cluster) LookupVia(i int, f id.File) (found bool, content []byte, err error) {
	reply, err := c.invoke(i, &past.ClientLookup{File: f})
	if err != nil {
		return false, nil, err
	}
	lr, ok := reply.(*past.ClientLookupReply)
	if !ok {
		return false, nil, fmt.Errorf("cluster: unexpected lookup reply %T", reply)
	}
	return lr.Found, lr.Content, nil
}

// ObsReport fetches node i's identity and full observability snapshot
// in one round trip — the fleet scraper's collection path.
func (c *Cluster) ObsReport(i int) (id.Node, obs.Snapshot, error) {
	reply, err := c.invoke(i, &past.ClientObsReport{})
	if err != nil {
		return id.Node{}, obs.Snapshot{}, err
	}
	rep, ok := reply.(*past.ClientObsReportReply)
	if !ok {
		return id.Node{}, obs.Snapshot{}, fmt.Errorf("cluster: unexpected obs reply %T", reply)
	}
	return rep.Node, rep.Snapshot, nil
}

// Close terminates every live node gracefully (escalating to SIGKILL on
// timeout) and closes the client transport. The base directory is left
// on disk; callers remove it when they don't need the logs.
func (c *Cluster) Close() error {
	var firstErr error
	for i, p := range c.Procs {
		if !p.alive() {
			continue
		}
		if err := p.signal(syscall.SIGTERM); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: close node %d: %w", i, err)
		}
	}
	for i, p := range c.Procs {
		if p.exited == nil {
			continue
		}
		if _, ok := p.waitExit(exitTimeout); !ok {
			p.signal(syscall.SIGKILL)
			p.waitExit(10 * time.Second)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: node %d did not exit on SIGTERM", i)
			}
		}
	}
	if c.client != nil {
		c.client.Close()
	}
	return firstErr
}

func (c *Cluster) event(e obs.Event) { c.cfg.Events.Emit(e) }

// freePorts reserves n distinct loopback ports by binding them all
// before releasing any, so no two allocations collide with each other.
// (Another process could still grab one in the gap; daemon start
// failures surface through waitReady and the restart backoff.)
func freePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}
