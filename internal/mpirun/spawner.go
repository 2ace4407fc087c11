package mpirun

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mph/internal/bootstrap"
)

// rankExit is one reaped rank of a spawned block: its world rank and the
// error its process exited with (nil = clean exit).
type rankExit struct {
	rank int
	err  error
}

// Block is the host-local slice of a launch, spawned on an opened host: the
// ranks placed on one host plus the job-wide launch context they need. The
// same context travels to every host; only Procs and the host differ.
type Block struct {
	// Procs are the ranks placed on the host, in world order.
	Procs []Proc
	// Size is the world size.
	Size int
	// Rendezvous is the launcher's advertised rendezvous address.
	Rendezvous string
	// Registration is the launcher-local registration file path ("" = none);
	// only the local spawner can use it directly.
	Registration string
	// Regdata is the base64 registration-file contents shipped by value for
	// spawners that cross a host boundary.
	Regdata string
	// Bind is the listener bind host for every rank ("" = loopback).
	Bind string
	// ExtraEnv entries (KEY=VALUE) are appended to every rank's environment.
	ExtraEnv []string
	// Passthrough is the launcher's filtered MPH_* environment, forwarded so
	// tuning knobs and fault injections reach ranks on every host.
	Passthrough []string
	// Stdout and Stderr receive the ranks' relayed output (nil = the
	// launcher's own os.Stdout/os.Stderr).
	Stdout, Stderr io.Writer
}

// rankPrefix renders the output-relay prefix of one rank.
func rankPrefix(p Proc, host string) string {
	if host == "" {
		return fmt.Sprintf("[exe%d rank%d] ", p.Exe, p.Rank)
	}
	return fmt.Sprintf("[exe%d rank%d@%s] ", p.Exe, p.Rank, host)
}

// Spawner reaches the placement hosts of a launch: a value resolved once
// from the CLI (or constructed directly by embedding callers), so the
// launcher opens each host and spawns its rank block there without knowing
// how ranks come to life on it.
type Spawner interface {
	// Name is the CLI spelling of the spawner ("local", "exec", "ssh",
	// "daemon"), used in launcher banners and error reports.
	Name() string
	// WantsRoutable reports whether ranks may run on other machines, in
	// which case the rendezvous and every rank's listener must bind routable
	// interfaces instead of loopback.
	WantsRoutable() bool
	// Open reaches the placement host ("" = the launcher's host) and checks
	// it can spawn ranks right now. The returned HostConn carries the host's
	// block; ctx is the job's, and a carrier that is a child process lives
	// until ctx ends or the HostConn is closed.
	Open(ctx context.Context, host string) (*HostConn, error)
}

// HostConn is one opened placement host: the block-protocol connection
// whose ping proved the host's server answers, which then carries the
// host's one spawn request — or, under LocalSpawner, nothing: the launcher
// runs the block itself.
type HostConn struct {
	host string
	// peer names the far end in rank errors ("" when the block runs in this
	// process).
	peer string
	conn io.ReadWriteCloser // nil once a spawn owns it, and under LocalSpawner
	lc   *bootstrap.LineConn
}

// Close hangs up a host nothing was spawned on; after a spawn the block's
// handle owns the connection and Close does nothing.
func (c *HostConn) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// dedupEnv collapses duplicate KEY=VALUE entries, keeping each key's last
// value at its first position. The Go runtime (and libc getenv) honour the
// FIRST occurrence of a duplicated key, so a per-rank override appended
// after os.Environ() — GOMAXPROCS from the slot-share policy in particular —
// would silently lose to the inherited environment without this.
func dedupEnv(env []string) []string {
	out := make([]string, 0, len(env))
	idx := make(map[string]int, len(env))
	for _, kv := range env {
		key, _, ok := strings.Cut(kv, "=")
		if !ok {
			out = append(out, kv)
			continue
		}
		if i, seen := idx[key]; seen {
			out[i] = kv
			continue
		}
		idx[key] = len(out)
		out = append(out, kv)
	}
	return out
}

// wireBlock renders a host's block in its wire form.
func wireBlock(host string, block Block) *SpawnBlock {
	wire := &SpawnBlock{
		Size:       block.Size,
		Rendezvous: block.Rendezvous,
		Regdata:    block.Regdata,
		Host:       host,
		Bind:       block.Bind,
		Env:        append(append([]string(nil), block.Passthrough...), block.ExtraEnv...),
		Ranks:      make([]SpawnRank, len(block.Procs)),
	}
	for i, p := range block.Procs {
		wire.Ranks[i] = SpawnRank{Rank: p.Rank, Argv: p.Argv, Env: p.Env}
	}
	return wire
}

// blockHandle is the launcher's end of one running block, wherever it
// runs: it turns the block's events into relayed output and rankExits.
type blockHandle struct {
	// peer names the far end in rank errors ("" when the block runs in this
	// process).
	peer           string
	prefix         map[int]string // output-relay prefix of every rank
	stdout, stderr io.Writer
	// exits delivers one rankExit per rank of the block, in reap order, and
	// is closed after the last one — a connection dying mid-job counts every
	// unresolved rank as failed.
	exits chan rankExit
	// done is closed once every rank has been reaped and its relayed output
	// drained: lines and exits arrive on one event stream.
	done chan struct{}
	// kill terminates a rank's process group wherever it runs; rank < 0
	// kills every rank of the block. Idempotent and best effort: a lost
	// connection has already failed every rank.
	kill func(rank int)
}

// newBlockHandle prepares the handle of a block about to be spawned.
func newBlockHandle(peer, host string, block Block) *blockHandle {
	h := &blockHandle{
		peer:   peer,
		prefix: make(map[int]string, len(block.Procs)),
		stdout: block.Stdout,
		stderr: block.Stderr,
		exits:  make(chan rankExit, len(block.Procs)),
		done:   make(chan struct{}),
	}
	if h.stdout == nil {
		h.stdout = os.Stdout
	}
	if h.stderr == nil {
		h.stderr = os.Stderr
	}
	for _, p := range block.Procs {
		h.prefix[p.Rank] = rankPrefix(p, host)
	}
	return h
}

// deliver consumes one event of the block. Exit events must arrive at most
// once per rank (the exits channel holds exactly one per rank).
func (h *blockHandle) deliver(ev blockEvent) {
	switch ev.Event {
	case "line":
		w := h.stdout
		if ev.Stream == "stderr" {
			w = h.stderr
		}
		fmt.Fprintf(w, "%s%s\n", h.prefix[ev.Rank], ev.Text)
	case "exit":
		h.exits <- rankExit{rank: ev.Rank, err: errForExit(ev.Code, ev.Msg)}
	}
}

// finish closes the exit stream once the last event has been delivered.
func (h *blockHandle) finish() {
	close(h.exits)
	close(h.done)
}

// errForExit converts an exit event into the error shape the supervisor's
// failure report expects (matching exec.ExitError's text).
func errForExit(code int, msg string) error {
	if msg != "" {
		return fmt.Errorf("%s (exit status %d)", msg, code)
	}
	if code == 0 {
		return nil
	}
	return fmt.Errorf("exit status %d", code)
}

// spawn starts the block on the opened host and returns the handle
// supervising it, which owns the connection from then on. On error nothing
// of the block survives.
func (c *HostConn) spawn(block Block) (*blockHandle, error) {
	h := newBlockHandle(c.peer, c.host, block)
	if c.lc == nil {
		run := startBlock(wireBlock(c.host, block), block.Registration, h.deliver)
		h.kill = run.kill
		go func() {
			run.wait()
			h.finish()
		}()
		return h, nil
	}
	conn, lc := c.conn, c.lc
	c.conn = nil
	h.kill = func(rank int) { _ = lc.Send(blockRequest{Op: "kill", Rank: rank}) }
	if err := lc.Send(blockRequest{Op: "spawn", Spawn: wireBlock(c.host, block)}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%s: send spawn: %w", h.peer, err)
	}
	go func() {
		h.readEvents(lc)
		conn.Close()
		h.finish()
	}()
	return h, nil
}

// LocalSpawner runs every rank directly on the launcher's host — the classic
// single-host mode. Host-placed ranks are rejected by LaunchSpec.Validate.
type LocalSpawner struct{}

// NewLocalSpawner returns the direct-spawn backend.
func NewLocalSpawner() *LocalSpawner { return &LocalSpawner{} }

// Name implements Spawner.
func (*LocalSpawner) Name() string { return "local" }

// WantsRoutable implements Spawner: everything stays on loopback.
func (*LocalSpawner) WantsRoutable() bool { return false }

// Open implements Spawner: the launcher's own process is the host's
// server, so there is nothing to reach.
func (*LocalSpawner) Open(ctx context.Context, host string) (*HostConn, error) {
	return &HostConn{host: host}, nil
}

// dialer is how a remote spawner reaches the block-protocol server of a
// placement host. Everything above the byte stream — open, spawn, handle —
// is shared; the carriers differ only here.
type dialer interface {
	Spawner
	// dial connects to the host's server. ctx bounds establishing the
	// connection; a carrier that is a child process is also hung up on (and
	// killed if that does not end it) when ctx ends.
	dial(ctx context.Context, host string) (io.ReadWriteCloser, error)
}

// peerName renders the server of a host for error reports.
func peerName(d dialer, host string) string {
	if host == "" {
		host = "(launcher host)"
	}
	return d.Name() + " " + host
}

// probeTimeout bounds reaching a host and its ping/pong round trip.
const probeTimeout = 15 * time.Second

// openRemote is every remote spawner's Open: dial the host's server and
// send one ping. The pong proves the host is reachable and its
// block-protocol server — daemon or agent binary — is there and answering,
// which is everything a spawn needs; the same connection then carries the
// spawn. timeout bounds the dial and the ping only: the dial runs under a
// child of ctx that a timer cancels, hanging up a pipe carrier, and the
// timer is stopped at the pong; a TCP connection's deadline is cleared
// there.
func openRemote(ctx context.Context, d dialer, host string, timeout time.Duration) (*HostConn, error) {
	deadline := time.Now().Add(timeout)
	dctx, hangUp := context.WithCancel(ctx)
	timer := time.AfterFunc(timeout, hangUp)
	conn, err := d.dial(dctx, host)
	if err != nil {
		timer.Stop()
		hangUp()
		return nil, err
	}
	tc, isTCP := conn.(net.Conn)
	if isTCP {
		tc.SetDeadline(deadline)
	}
	c := &HostConn{host: host, peer: peerName(d, host), conn: conn, lc: bootstrap.NewLineConn(conn)}
	var ev blockEvent
	err = c.lc.Send(blockRequest{Op: "ping"})
	if err == nil {
		err = c.lc.Recv(&ev)
	}
	if err == nil && ev.Event != "pong" {
		err = fmt.Errorf("unexpected %q reply to ping", ev.Event)
	}
	if !timer.Stop() && err == nil {
		err = fmt.Errorf("no pong within %v", timeout)
	}
	if err != nil {
		hangUp()
		conn.Close()
		return nil, fmt.Errorf("%s: %w", c.peer, err)
	}
	if isTCP {
		tc.SetDeadline(time.Time{})
	}
	return c, nil
}

// readEvents consumes the server's event stream until every rank has
// exited. A dead connection or a garbled event fails every still-pending
// rank — a server crash mid-job must surface as supervised rank failures,
// not a hang.
func (h *blockHandle) readEvents(lc *bootstrap.LineConn) {
	pending := make(map[int]bool, len(h.prefix))
	for rank := range h.prefix {
		pending[rank] = true
	}
	fail := func(msg string) {
		for rank := range pending {
			h.exits <- rankExit{rank: rank, err: fmt.Errorf("%s: %s", h.peer, msg)}
		}
	}
	for len(pending) > 0 {
		var ev blockEvent
		switch err := lc.Recv(&ev); {
		case errors.Is(err, bootstrap.ErrBadLine):
			fail(fmt.Sprintf("bad event: %v", err))
			return
		case err != nil:
			fail(fmt.Sprintf("connection lost: %v", err))
			return
		case ev.Event == "error":
			fail(ev.Msg)
			return
		case ev.Event == "exit" && !pending[ev.Rank]:
			continue
		case ev.Event == "exit":
			delete(pending, ev.Rank)
		}
		h.deliver(ev)
	}
}

// pipeConn is a block-protocol connection carried by the stdio of a child
// process (a local agent, or the ssh client in front of a remote one).
type pipeConn struct {
	io.ReadCloser
	io.WriteCloser
	cmd *exec.Cmd
}

// Close hangs up both directions — the agent sees EOF on stdin, kills
// whatever it spawned, and exits, never blocking on an event nobody will
// read — and reaps the carrier process.
func (c *pipeConn) Close() error {
	c.WriteCloser.Close()
	c.ReadCloser.Close()
	return c.cmd.Wait()
}

// carrierWaitDelay is how long a carrier process gets to exit after its
// dial context ended and it was hung up on, before it is killed.
const carrierWaitDelay = 2 * time.Second

// dialPipe starts argv as a carrier process and returns its stdio as the
// connection. The process's stderr is the launcher's: what an agent or ssh
// has to say about itself is launcher-level diagnostics.
func dialPipe(ctx context.Context, argv []string) (io.ReadWriteCloser, error) {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	// Own process group: a terminal signal that takes the launcher down must
	// not take the carrier with it — the agent has to live to see EOF.
	setProcGroup(cmd)
	// Never SIGKILL first: a killed agent cannot reap its ranks. EOF is the
	// protocol's kill lease, so ending the context hangs up instead.
	cmd.Cancel = stdin.Close
	cmd.WaitDelay = carrierWaitDelay
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %q: %w", strings.Join(argv, " "), err)
	}
	return &pipeConn{ReadCloser: stdout, WriteCloser: stdin, cmd: cmd}, nil
}

// agentArgv is the agent command line: the mphrun binary ("" = this
// executable) serving one connection on its stdio.
func agentArgv(path string) ([]string, error) {
	if path == "" {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("mpirun: resolve agent path: %w", err)
		}
		path = self
	}
	return []string{path, "agent"}, nil
}

// ExecSpawner runs every host's block through an agent process ("mphrun
// agent") on the launcher's own host, treating host assignments as labels
// only. It exercises the full remote path — block protocol over a pipe, env
// forwarding, host topology, remote kill — without an ssh daemon, which is
// what CI runs.
type ExecSpawner struct {
	// AgentPath is the agent binary ("" = this executable).
	AgentPath string
}

// NewExecSpawner returns the local-agent backend.
func NewExecSpawner(agentPath string) *ExecSpawner {
	return &ExecSpawner{AgentPath: agentPath}
}

// Name implements Spawner.
func (*ExecSpawner) Name() string { return "exec" }

// WantsRoutable implements Spawner: every process shares the launcher's
// loopback.
func (*ExecSpawner) WantsRoutable() bool { return false }

// dial starts one local agent.
func (s *ExecSpawner) dial(ctx context.Context, host string) (io.ReadWriteCloser, error) {
	argv, err := agentArgv(s.AgentPath)
	if err != nil {
		return nil, err
	}
	return dialPipe(ctx, argv)
}

// Open implements Spawner.
func (s *ExecSpawner) Open(ctx context.Context, host string) (*HostConn, error) {
	return openRemote(ctx, s, host, probeTimeout)
}

// SSHSpawner runs each host's block through an agent started on that host
// via ssh. The agent binary must exist at the same path on every remote
// host.
type SSHSpawner struct {
	// AgentPath is the agent binary ("" = this executable's path, assumed
	// shared with the remote hosts).
	AgentPath string
	// Options are extra ssh arguments inserted before the host (after the
	// built-in BatchMode options).
	Options []string
	// Command is the ssh client binary ("" = "ssh"). Tests substitute a stub
	// that runs the remote command locally.
	Command string
}

// NewSSHSpawner returns the ssh backend.
func NewSSHSpawner(agentPath string, options []string) *SSHSpawner {
	return &SSHSpawner{AgentPath: agentPath, Options: options}
}

// Name implements Spawner.
func (*SSHSpawner) Name() string { return "ssh" }

// WantsRoutable implements Spawner: remote ranks must be able to dial back,
// so loopback listeners would strand them.
func (*SSHSpawner) WantsRoutable() bool { return true }

// dial runs the agent on the host via ssh; unpinned ranks get a local agent
// so supervision is uniform.
func (s *SSHSpawner) dial(ctx context.Context, host string) (io.ReadWriteCloser, error) {
	argv, err := agentArgv(s.AgentPath)
	if err != nil {
		return nil, err
	}
	if host == "" {
		return dialPipe(ctx, argv)
	}
	ssh := s.Command
	if ssh == "" {
		ssh = "ssh"
	}
	args := []string{ssh, "-o", "BatchMode=yes", "-o", "StrictHostKeyChecking=accept-new"}
	args = append(args, s.Options...)
	// "--": whatever the host is called, ssh must not read it as an option.
	return dialPipe(ctx, append(args, "--", host, shellJoin(argv)))
}

// Open implements Spawner: beyond name resolution, reachability and
// non-interactive authentication, the pong proves the agent binary exists
// on the host.
func (s *SSHSpawner) Open(ctx context.Context, host string) (*HostConn, error) {
	return openRemote(ctx, s, host, probeTimeout)
}

// daemonDialTimeout is the default budget for reaching a host's daemon,
// including reconnect retries against a daemon that is restarting.
const daemonDialTimeout = 5 * time.Second

// DaemonSpawner launches rank blocks through mphd daemons already running
// on the placement hosts: one warm TCP connection per host, instead of one
// cold agent start.
type DaemonSpawner struct {
	// Addr, when set, sends every block to this one daemon address
	// regardless of host label — single-machine testing of the daemon path,
	// the daemon analogue of the exec backend.
	Addr string
	// Port is the mphd control port on every host (0 = DefaultDaemonPort).
	Port int
	// DialTimeout bounds connecting to a host's daemon, including reconnect
	// retries against a daemon that is restarting (0 = 5s).
	DialTimeout time.Duration
}

// NewDaemonSpawner returns the daemon backend. addr pins every block to one
// daemon address ("" = per-host, reaching host:port); port 0 selects
// DefaultDaemonPort.
func NewDaemonSpawner(addr string, port int) *DaemonSpawner {
	return &DaemonSpawner{Addr: addr, Port: port}
}

// Name implements Spawner.
func (*DaemonSpawner) Name() string { return "daemon" }

// WantsRoutable implements Spawner: per-host daemons mean ranks on other
// machines, unless a single daemon address pins everything to one machine.
func (s *DaemonSpawner) WantsRoutable() bool { return s.Addr == "" }

// hostAddr resolves the daemon control address for a placement host.
func (s *DaemonSpawner) hostAddr(host string) string {
	if s.Addr != "" {
		return s.Addr
	}
	port := s.Port
	if port == 0 {
		port = DefaultDaemonPort
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, strconv.Itoa(port))
}

// dial connects to a host's daemon, retrying refused or dropped dials until
// the budget expires so a daemon mid-restart (stale socket, supervisor
// respawn) is reconnected to instead of failed on.
func (s *DaemonSpawner) dial(ctx context.Context, host string) (io.ReadWriteCloser, error) {
	addr := s.hostAddr(host)
	timeout := s.DialTimeout
	if timeout <= 0 {
		timeout = daemonDialTimeout
	}
	deadline := time.Now().Add(timeout)
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return nil, fmt.Errorf("daemon %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("daemon %s: %w", addr, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Open implements Spawner.
func (s *DaemonSpawner) Open(ctx context.Context, host string) (*HostConn, error) {
	return openRemote(ctx, s, host, probeTimeout)
}
