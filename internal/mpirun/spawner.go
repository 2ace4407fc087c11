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

// RankExit is one reaped rank of a spawned block: its world rank and the
// error its process exited with (nil = clean exit).
type RankExit struct {
	// Rank is the world rank that exited.
	Rank int
	// Err is the exit error (nil = exit status 0).
	Err error
}

// Handle supervises the ranks of one spawned host block. Implementations
// must deliver exactly one RankExit per rank on Exits and close the channel
// once the last rank has been reaped (or declared lost — a daemon connection
// dying mid-job counts every unresolved rank as failed).
type Handle interface {
	// Exits delivers one RankExit per rank of the block, in reap order, and
	// is closed after the last one.
	Exits() <-chan RankExit
	// Kill terminates a rank's process group wherever it runs; rank < 0
	// kills every rank of the block. Idempotent and best-effort — a rank
	// that already exited is skipped.
	Kill(rank int)
	// Wait blocks until every rank has been reaped and its relayed output
	// drained.
	Wait()
}

// Block is the host-local slice of a launch handed to a Spawner: the ranks
// placed on one host plus the job-wide launch context they need. The same
// context travels to every host; only Procs and the host differ.
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

// Spawner starts the host-local rank blocks of a launch: a value resolved
// once from the CLI (or constructed directly by embedding callers), so the
// launcher calls Spawn per host without knowing how ranks come to life
// there.
type Spawner interface {
	// Name is the CLI spelling of the spawner ("local", "exec", "ssh",
	// "daemon"), used in launcher banners and error reports.
	Name() string
	// WantsRoutable reports whether ranks may run on other machines, in
	// which case the rendezvous and every rank's listener must bind routable
	// interfaces instead of loopback.
	WantsRoutable() bool
	// Spawn starts every rank of the block on the given placement host ("" =
	// the launcher's host) and returns the handle supervising them. On error
	// nothing of the block survives.
	Spawn(ctx context.Context, host string, block Block) (Handle, error)
}

// HostProber is implemented by spawners that can cheaply check a host is
// reachable and ready before the launcher commits to the full spawn. The
// launcher probes every placement host concurrently before phase 1 and fails
// fast with a per-host report instead of burning the rendezvous timeout.
type HostProber interface {
	// ProbeHost checks one placement host; a nil return means the host can
	// spawn ranks right now.
	ProbeHost(ctx context.Context, host string) error
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
// runs: it turns the block's events into relayed output and RankExits.
type blockHandle struct {
	// peer names the far end in rank errors ("" when the block runs in this
	// process).
	peer           string
	prefix         map[int]string // output-relay prefix of every rank
	stdout, stderr io.Writer
	exits          chan RankExit
	done           chan struct{}
	kill           func(rank int)
}

// newBlockHandle prepares the handle of a block about to be spawned.
func newBlockHandle(peer, host string, block Block) *blockHandle {
	h := &blockHandle{
		peer:   peer,
		prefix: make(map[int]string, len(block.Procs)),
		stdout: block.Stdout,
		stderr: block.Stderr,
		exits:  make(chan RankExit, len(block.Procs)),
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
		h.exits <- RankExit{Rank: ev.Rank, Err: errForExit(ev.Code, ev.Msg)}
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

// Exits implements Handle.
func (h *blockHandle) Exits() <-chan RankExit { return h.exits }

// Kill implements Handle. Best effort: a lost connection has already failed
// every rank.
func (h *blockHandle) Kill(rank int) { h.kill(rank) }

// Wait implements Handle: output lines and exits arrive on one event
// stream, so the stream finishing means everything is relayed.
func (h *blockHandle) Wait() { <-h.done }

// LocalSpawner runs every rank directly on the launcher's host — the classic
// single-host mode. Host-placed ranks are rejected by LaunchSpec.Validate.
type LocalSpawner struct{}

// NewLocalSpawner returns the direct-spawn backend.
func NewLocalSpawner() *LocalSpawner { return &LocalSpawner{} }

// Name implements Spawner.
func (*LocalSpawner) Name() string { return "local" }

// WantsRoutable implements Spawner: everything stays on loopback.
func (*LocalSpawner) WantsRoutable() bool { return false }

// Spawn implements Spawner by running the block in the launcher itself,
// its events delivered straight to the handle.
func (s *LocalSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	h := newBlockHandle("", host, block)
	run := startBlock(wireBlock(host, block), block.Registration, h.deliver)
	h.kill = run.kill
	go func() {
		run.wait()
		h.finish()
	}()
	return h, nil
}

// dialer is how a remote spawner reaches the block-protocol server of a
// placement host. Everything above the byte stream — probe, spawn, handle —
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

// probeRemote is every remote spawner's ProbeHost: one ping/pong round trip
// proves the host is reachable and its block-protocol server — daemon or
// agent binary — is there and answering, which is everything a spawn needs.
func probeRemote(ctx context.Context, d dialer, host string) error {
	conn, err := d.dial(ctx, host)
	if err != nil {
		return err
	}
	defer conn.Close()
	if tc, ok := conn.(net.Conn); ok {
		if deadline, ok := ctx.Deadline(); ok {
			tc.SetDeadline(deadline)
		}
	}
	lc := bootstrap.NewLineConn(conn)
	var ev blockEvent
	if err := lc.Send(blockRequest{Op: "ping"}); err != nil {
		return fmt.Errorf("%s: %w", peerName(d, host), err)
	}
	if err := lc.Recv(&ev); err != nil {
		return fmt.Errorf("%s: %w", peerName(d, host), err)
	}
	if ev.Event != "pong" {
		return fmt.Errorf("%s: unexpected %q reply to ping", peerName(d, host), ev.Event)
	}
	return nil
}

// spawnRemote is every remote spawner's Spawn: ship the host's whole block
// in one spawn request and supervise it over the streamed events. The
// registration file travels inside the request, by value.
func spawnRemote(ctx context.Context, d dialer, host string, block Block) (Handle, error) {
	conn, err := d.dial(ctx, host)
	if err != nil {
		return nil, err
	}
	lc := bootstrap.NewLineConn(conn)
	h := newBlockHandle(peerName(d, host), host, block)
	h.kill = func(rank int) { _ = lc.Send(blockRequest{Op: "kill", Rank: rank}) }
	if err := lc.Send(blockRequest{Op: "spawn", Spawn: wireBlock(host, block)}); err != nil {
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
			h.exits <- RankExit{Rank: rank, Err: fmt.Errorf("%s: %s", h.peer, msg)}
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

// ProbeHost implements HostProber.
func (s *ExecSpawner) ProbeHost(ctx context.Context, host string) error {
	return probeRemote(ctx, s, host)
}

// Spawn implements Spawner.
func (s *ExecSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	return spawnRemote(ctx, s, host, block)
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

// ProbeHost implements HostProber: beyond name resolution, reachability and
// non-interactive authentication, the pong proves the agent binary exists
// on the host.
func (s *SSHSpawner) ProbeHost(ctx context.Context, host string) error {
	return probeRemote(ctx, s, host)
}

// Spawn implements Spawner.
func (s *SSHSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	return spawnRemote(ctx, s, host, block)
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

// ProbeHost implements HostProber.
func (s *DaemonSpawner) ProbeHost(ctx context.Context, host string) error {
	return probeRemote(ctx, s, host)
}

// Spawn implements Spawner.
func (s *DaemonSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	return spawnRemote(ctx, s, host, block)
}
