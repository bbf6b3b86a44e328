package cluster

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"past/internal/id"
)

// Proc supervises one daemon process across its lives. The zero state
// is "never started"; start/kill/terminate are driven by the Cluster,
// which serializes them, so Proc carries no lock — the only concurrent
// writer is the waiter goroutine, which publishes through the exited
// channel.
type Proc struct {
	Index     int
	Seed      int64   // daemon -seed; fixes the node id across lives
	ID        id.Node // derived from Seed, constant across restarts
	Addr      string  // overlay listen address, constant across lives
	DebugAddr string  // /metrics + /healthz address, constant across lives
	DataDir   string  // per-node persistent store; survives lives
	LogPath   string  // captured stdout+stderr, appended across lives

	Lives    int // times the process was started
	Restarts int // times it was started again after a fault

	cmd     *exec.Cmd
	logf    *os.File
	exited  chan struct{}
	exitErr error
}

// start launches one life of the daemon. args is the full daemon argv
// (the Cluster builds it). The previous life must have exited.
func (p *Proc) start(c Command, args []string) error {
	if p.alive() {
		return fmt.Errorf("cluster: node %d is already running", p.Index)
	}
	logf, err := os.OpenFile(p.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cluster: node %d log: %w", p.Index, err)
	}
	fmt.Fprintf(logf, "=== life %d: %s %s\n", p.Lives+1, c.Path, strings.Join(args, " "))
	cmd := exec.Command(c.Path, append(append([]string{}, c.Args...), args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), c.Env...)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("cluster: node %d start: %w", p.Index, err)
	}
	p.cmd = cmd
	p.logf = logf
	p.Lives++
	exited := make(chan struct{})
	p.exited = exited
	go func() {
		err := cmd.Wait()
		logf.Close()
		p.exitErr = err
		close(exited)
	}()
	return nil
}

// alive reports whether the current life is still running.
func (p *Proc) alive() bool {
	if p.exited == nil {
		return false
	}
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// signal delivers sig to the current life.
func (p *Proc) signal(sig syscall.Signal) error {
	if !p.alive() {
		return fmt.Errorf("cluster: node %d is not running", p.Index)
	}
	return p.cmd.Process.Signal(sig)
}

// waitExit blocks until the current life exits (returning its Wait
// error: nil for a clean exit, an ExitError for signals and nonzero
// statuses) or the timeout passes.
func (p *Proc) waitExit(timeout time.Duration) (error, bool) {
	if p.exited == nil {
		return nil, true
	}
	select {
	case <-p.exited:
		return p.exitErr, true
	case <-time.After(timeout):
		return nil, false
	}
}

// waitReady polls /healthz until the daemon reports ready, the process
// exits, or the timeout passes.
func (p *Proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	url := "http://" + p.DebugAddr + "/healthz"
	for {
		if !p.alive() {
			return fmt.Errorf("cluster: node %d exited while coming up (%v); log: %s", p.Index, p.exitErr, p.LogPath)
		}
		resp, err := client.Get(url)
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: node %d not ready after %v; log: %s", p.Index, timeout, p.LogPath)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
