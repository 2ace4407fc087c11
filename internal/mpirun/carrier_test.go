package mpirun

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/wire"
)

// TestMain doubles as the per-host agent: invoked as "agent" this test
// binary serves one block-protocol connection on its stdio, which is how the
// pipe and ssh-stub carriers are exercised without installing mphrun.
// Invoked as "rank" it is the smallest rank Launch can supervise: it joins
// the rendezvous, takes the address book and says goodbye.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		ServeAgent()
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "rank" {
		env, err := bootstrap.EnvFromOS()
		if err == nil {
			var s *bootstrap.Session
			s, err = bootstrap.Register(env.Rendezvous, env.Rank, bootstrap.Endpoint{Addr: "127.0.0.1:1", Host: env.Host}, 30*time.Second)
			if err == nil {
				s.Bye()
				s.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// countingListener counts the connections a test daemon accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

// Accept implements net.Listener.
func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// testDaemon starts an ephemeral-port daemon serving in the background and
// returns it with a spawner pinned to its address.
func testDaemon(t *testing.T) (*Daemon, Spawner) {
	t.Helper()
	d, err := NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.ln = &countingListener{Listener: d.ln}
	go d.Serve()
	t.Cleanup(func() { d.Close() })
	return d, NewDaemonSpawner(d.Addr(), 0)
}

// testAgent writes an agent wrapper that appends its pid to a file before
// becoming this test binary's agent mode, and returns its path with a func
// that SIGKILLs the most recently started agent — the pipe carriers' "server
// died" event.
func testAgent(t *testing.T) (path string, kill func()) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "agent")
	script := fmt.Sprintf("#!/bin/sh\necho $$ >> %s.pids\nexec %s agent\n", path, self)
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path, func() {
		pids := agentStarts(t, path)
		syscall.Kill(pids[len(pids)-1], syscall.SIGKILL)
	}
}

// agentStarts returns the pid of every agent started through a testAgent
// wrapper, in start order.
func agentStarts(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path + ".pids")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, line := range strings.Fields(string(data)) {
		pid, err := strconv.Atoi(line)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	return pids
}

// sshStub writes a fake ssh client that ignores every option and host
// argument and runs the final argument (the remote command line) in a local
// shell, so the ssh spawner's argument and quoting path runs without sshd.
// The stub is "ssh" in a directory put at the head of PATH for the rest of
// the test; it leaves its argv, one argument a line, in "<stub>.argv", and
// sshStub returns its path.
func sshStub(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ssh")
	script := "#!/bin/sh\nprintf '%s\\n' \"$@\" > \"$0.argv\"\nfor a in \"$@\"; do cmd=\"$a\"; done\nexec /bin/sh -c \"$cmd\"\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
	return path
}

// TestSSHArgvEndsOptionsBeforeHost: a Proc.Host set in code never met the
// parsers' validHost, so dial itself must keep ssh from reading an
// option-shaped host ("-oProxyCommand=..." runs a command on the launcher)
// as an option. The stub records the argv it was started with.
func TestSSHArgvEndsOptionsBeforeHost(t *testing.T) {
	agent, _ := testAgent(t)
	stub := sshStub(t)
	const host = "-oProxyCommand=false"
	c, err := NewSSHSpawner(agent, []string{"-p", "2222"}).open(context.Background(), host)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	data, err := os.ReadFile(stub + ".argv")
	if err != nil {
		t.Fatal(err)
	}
	argv := strings.Split(strings.TrimSpace(string(data)), "\n")
	if n := len(argv); n < 3 || argv[n-3] != "--" || argv[n-2] != host {
		t.Fatalf("ssh argv %q: want \"--\" directly before the host", argv)
	}
}

// carriers are the three byte streams the block protocol is served over.
// start returns a spawner dialing a fresh server and a func that kills that
// server abruptly.
var carriers = []struct {
	name  string
	start func(t *testing.T) (Spawner, func())
}{
	{"tcp", func(t *testing.T) (Spawner, func()) {
		d, sp := testDaemon(t)
		return sp, func() { d.Close() }
	}},
	{"pipe", func(t *testing.T) (Spawner, func()) {
		agent, kill := testAgent(t)
		return NewExecSpawner(agent), kill
	}},
	{"ssh-stub", func(t *testing.T) (Spawner, func()) {
		agent, kill := testAgent(t)
		sshStub(t)
		return NewSSHSpawner(agent, []string{"-p", "2222"}), kill
	}},
}

// spawnOn opens the host through the spawner and spawns the block there.
func spawnOn(t *testing.T, sp Spawner, host string, block Block) *blockHandle {
	t.Helper()
	c, err := sp.open(context.Background(), host)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.spawn(block)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// collectExits drains a handle's exit stream into a rank-indexed map.
func collectExits(t *testing.T, h *blockHandle, n int) map[int]error {
	t.Helper()
	got := make(map[int]error, n)
	timeout := time.After(30 * time.Second)
	for len(got) < n {
		select {
		case e, ok := <-h.exits:
			if !ok {
				t.Fatalf("exit stream closed after %d of %d exits", len(got), n)
			}
			if _, dup := got[e.rank]; dup {
				t.Fatalf("rank %d exited twice", e.rank)
			}
			got[e.rank] = e.err
		case <-timeout:
			t.Fatalf("timed out after %d of %d exits", len(got), n)
		}
	}
	<-h.done
	return got
}

// syncBuffer is a goroutine-safe bytes.Buffer for captured relay output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write implements io.Writer.
func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String returns the accumulated output.
func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// sleepers is a block of n ranks that only a kill can end in time.
func sleepers(n int) Block {
	block := Block{Size: n, Rendezvous: "127.0.0.1:1"}
	for r := 0; r < n; r++ {
		block.Procs = append(block.Procs, Proc{Rank: r, Argv: []string{"/bin/sh", "-c", "sleep 60"}})
	}
	return block
}

// pidGone reports whether the process no longer exists.
func pidGone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

// TestBlockProtocolConformance is the one contract every carrier must meet:
// the same cases run over TCP to a Daemon, over the stdio pipe of a local
// agent, and through the ssh client seam.
func TestBlockProtocolConformance(t *testing.T) {
	const host = "nodeX" // non-empty so the ssh carrier goes through its client
	cases := []struct {
		name string
		run  func(t *testing.T, sp Spawner, killServer func())
	}{
		// One spawn request starts a whole mixed-fate block, the environment
		// (launch context, block env, per-rank env) reaches every rank,
		// output comes back as prefixed lines on the right streams, and
		// per-rank exit statuses are reported faithfully.
		{"round trip", func(t *testing.T, sp Spawner, _ func()) {
			var out, errOut syncBuffer
			block := Block{
				Size:     3,
				Bind:     "127.0.0.1",
				ExtraEnv: []string{"BLOCK_VAR=blk"},
				Procs: []Proc{
					{Rank: 0, Argv: []string{"/bin/sh", "-c", "echo rank=$MPH_RANK size=$MPH_NPROCS host=$MPH_HOST bind=$MPH_BIND blk=$BLOCK_VAR mine=$RANK_VAR"}, Env: []string{"RANK_VAR=r0"}},
					{Rank: 1, Argv: []string{"/bin/sh", "-c", "echo oops 1>&2; exit 3"}, Exe: 1},
					{Rank: 2, Argv: []string{"/bin/true"}, Exe: 1},
				},
				Rendezvous: "127.0.0.1:1",
				Stdout:     &out,
				Stderr:     &errOut,
			}
			h := spawnOn(t, sp, host, block)
			exits := collectExits(t, h, 3)
			if exits[0] != nil {
				t.Errorf("rank 0: %v", exits[0])
			}
			if exits[1] == nil || !strings.Contains(exits[1].Error(), "exit status 3") {
				t.Errorf("rank 1 err %v, want exit status 3", exits[1])
			}
			if exits[2] != nil {
				t.Errorf("rank 2: %v", exits[2])
			}
			wantOut := "[exe0 rank0@nodeX] rank=0 size=3 host=nodeX bind=127.0.0.1 blk=blk mine=r0\n"
			if got := out.String(); got != wantOut {
				t.Errorf("stdout %q, want %q", got, wantOut)
			}
			if got := errOut.String(); got != "[exe1 rank1@nodeX] oops\n" {
				t.Errorf("stderr %q", got)
			}
		}},
		// The registration file travels inside the spawn request: the rank
		// reads it from a path that is not the launcher's.
		{"registration by value", func(t *testing.T, sp Spawner, _ func()) {
			var out syncBuffer
			block := Block{
				Size:         1,
				Rendezvous:   "127.0.0.1:1",
				Registration: "/launcher/only/path",
				Regdata:      "BEGIN\nEND\n",
				Procs:        []Proc{{Rank: 0, Argv: []string{"/bin/sh", "-c", `test "$MPH_REGISTRATION" != /launcher/only/path && cat "$MPH_REGISTRATION"`}}},
				Stdout:       &out,
			}
			h := spawnOn(t, sp, host, block)
			if exits := collectExits(t, h, 1); exits[0] != nil {
				t.Errorf("rank 0: %v", exits[0])
			}
			if got, want := out.String(), "[exe0 rank0@nodeX] BEGIN\n[exe0 rank0@nodeX] END\n"; got != want {
				t.Errorf("registration contents %q, want %q", got, want)
			}
		}},
		// A rank whose command cannot start is reported as exit code 127 with
		// the start error, without failing the rest of the block.
		{"start failure", func(t *testing.T, sp Spawner, _ func()) {
			block := Block{
				Size:       2,
				Rendezvous: "127.0.0.1:1",
				Procs: []Proc{
					{Rank: 0, Argv: []string{"/nonexistent-mph-binary"}},
					{Rank: 1, Argv: []string{"/bin/true"}},
				},
			}
			h := spawnOn(t, sp, host, block)
			exits := collectExits(t, h, 2)
			if exits[0] == nil || !strings.Contains(exits[0].Error(), "exit status 127") {
				t.Errorf("unstartable rank err %v, want exit status 127", exits[0])
			}
			if exits[1] != nil {
				t.Errorf("healthy rank: %v", exits[1])
			}
		}},
		// The grace-kill path: a Kill over the connection must end the named
		// rank's process group on the server's side, surfacing as the SIGKILL
		// exit status (137).
		{"kill", func(t *testing.T, sp Spawner, _ func()) {
			h := spawnOn(t, sp, host, sleepers(2))
			time.Sleep(100 * time.Millisecond) // let both ranks start
			h.kill(0)
			h.kill(1)
			start := time.Now()
			exits := collectExits(t, h, 2)
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("kill took %v; the sleeps should die immediately", elapsed)
			}
			for rank, err := range exits {
				if err == nil || !strings.Contains(err.Error(), "exit status 137") {
					t.Errorf("rank %d err %v, want exit status 137 (SIGKILL)", rank, err)
				}
			}
		}},
		// The supervised-failure guarantee: when the server dies with ranks
		// still running, every pending rank must fail with a connection-lost
		// error promptly — never a hang.
		{"server death", func(t *testing.T, sp Spawner, killServer func()) {
			// Each rank records its pid: a SIGKILLed agent cannot reap them,
			// so the test does.
			dir := t.TempDir()
			block := sleepers(2)
			for i := range block.Procs {
				block.Procs[i].Argv = []string{"/bin/sh", "-c", fmt.Sprintf("echo $$ > %s/$MPH_RANK.pid; exec sleep 60", dir)}
			}
			t.Cleanup(func() {
				pidfiles, _ := filepath.Glob(filepath.Join(dir, "*.pid"))
				for _, f := range pidfiles {
					data, _ := os.ReadFile(f)
					if pid, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil {
						syscall.Kill(pid, syscall.SIGKILL)
					}
				}
			})
			h := spawnOn(t, sp, host, block)
			time.Sleep(200 * time.Millisecond)
			killServer()
			start := time.Now()
			exits := collectExits(t, h, 2)
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("server death took %v to surface", elapsed)
			}
			for rank, err := range exits {
				if err == nil || !strings.Contains(err.Error(), "connection lost") {
					t.Errorf("rank %d err %v, want a connection-lost failure", rank, err)
				}
			}
		}},
		// One connection carries at most one block.
		{"second spawn rejected", func(t *testing.T, sp Spawner, _ func()) {
			conn, err := sp.dial(context.Background(), host)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			out := &sender{w: conn}
			req := blockRequest{Kind: kindSpawn, Spawn: wireBlock(host, sleepers(1))}
			for i := 0; i < 2; i++ {
				if err := out.request(req); err != nil {
					t.Fatal(err)
				}
			}
			for {
				var ev blockEvent
				if err := readEvent(conn, &ev); err != nil {
					t.Fatalf("connection ended without an error event: %v", err)
				}
				if ev.Kind == kindError {
					if !strings.Contains(ev.Text, "already spawned") {
						t.Errorf("error %q does not name the second spawn", ev.Text)
					}
					return
				}
			}
		}},
		// EOF is the kill lease: hanging up the launcher's side kills the
		// block's process groups, so no rank outlives its launcher — even
		// while a rank is mid-output, when the server's next event write
		// hits the broken connection before its read sees EOF.
		{"hang-up kills the block", func(t *testing.T, sp Spawner, _ func()) {
			conn, err := sp.dial(context.Background(), host)
			if err != nil {
				t.Fatal(err)
			}
			block := sleepers(2)
			block.Procs[1].Argv = []string{"/bin/sh", "-c", "while :; do echo chatter; done"}
			if err := (&sender{w: conn}).request(blockRequest{Kind: kindSpawn, Spawn: wireBlock(host, block)}); err != nil {
				t.Fatal(err)
			}
			var pids []int
			for len(pids) < 2 {
				var ev blockEvent
				if err := readEvent(conn, &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Kind == kindSpawned {
					pids = append(pids, ev.Pid)
				}
			}
			if pc, ok := conn.(*pipeConn); ok {
				// A dying launcher closes both pipe ends in no particular
				// order: let the agent hit the broken stdout first.
				pc.ReadCloser.Close()
				time.Sleep(50 * time.Millisecond)
			}
			conn.Close()
			deadline := time.Now().Add(10 * time.Second)
			for _, pid := range pids {
				for !pidGone(pid) {
					if time.Now().After(deadline) {
						t.Fatalf("pid %d survived the hang-up", pid)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}},
	}
	for _, c := range carriers {
		for _, tc := range cases {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				sp, killServer := c.start(t)
				tc.run(t, sp, killServer)
			})
		}
	}
}

// TestDaemonBoundsRequestRecord is the unauthenticated-port guard: a peer
// whose record header names more than wire.MaxRecordBytes gets an error
// event and a hang-up, and the daemon holds nothing for the bytes it named.
func TestDaemonBoundsRequestRecord(t *testing.T) {
	d, _ := testDaemon(t)
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hdr := binary.LittleEndian.AppendUint32(nil, wire.MaxRecordBytes+1)
	if _, err := conn.Write(append(hdr, kindSpawn)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var ev blockEvent
	if err := readEvent(conn, &ev); err != nil {
		t.Fatalf("no reply to an over-cap request: %v", err)
	}
	if ev.Kind != kindError || !strings.Contains(ev.Text, "bad request") {
		t.Errorf("reply %+v, want a bad-request error event", ev)
	}
	if err := readEvent(conn, &ev); err != io.EOF {
		t.Errorf("after the error event: %v, want the daemon's hang-up", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc+1<<20 {
		t.Errorf("heap grew %d bytes refusing one header", after.HeapAlloc-before.HeapAlloc)
	}
}

// TestDaemonListensOnLoopbackOnly: the block protocol runs any argv it is
// sent, so a Daemon listens on a loopback IP literal or not at all — not on
// every interface, and not on a name that could resolve off the machine.
func TestDaemonListensOnLoopbackOnly(t *testing.T) {
	for _, addr := range []string{"0.0.0.0:0", "[::]:0", "localhost:0", ":0"} {
		if d, err := NewDaemon(addr); err == nil {
			d.Close()
			t.Errorf("NewDaemon(%q) listened", addr)
		}
	}
	for _, addr := range []string{"127.0.0.1:0", "[::1]:0"} {
		d, err := NewDaemon(addr)
		if err != nil {
			t.Errorf("NewDaemon(%q): %v", addr, err)
			continue
		}
		d.Close()
	}
}

// TestBadEventFailsRanks is the client's half of the framing guard: a
// server that sends something other than an event record fails every
// pending rank with a bad-event error instead of wedging the handle.
func TestBadEventFailsRanks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req blockRequest
		if readRequest(conn, &req) != nil || (&sender{w: conn}).event(blockEvent{Kind: kindPong}) != nil {
			return
		}
		fmt.Fprintln(conn, "this is not an event")
		time.Sleep(5 * time.Second) // the client must not need EOF to notice
	}()
	h := spawnOn(t, NewDaemonSpawner(ln.Addr().String(), 0), "", sleepers(2))
	for rank, err := range collectExits(t, h, 2) {
		if err == nil || !strings.Contains(err.Error(), "bad event") {
			t.Errorf("rank %d err %v, want a bad-event failure", rank, err)
		}
	}
}

// TestProbe covers both verdicts of open's ping: pong from a live server on
// every carrier, a prompt error from a dead daemon address.
func TestProbe(t *testing.T) {
	for _, c := range carriers {
		sp, _ := c.start(t)
		conn, err := sp.open(context.Background(), "nodeX")
		if err != nil {
			t.Errorf("probe of live %s server: %v", c.name, err)
			continue
		}
		conn.Close()
	}
	start := time.Now()
	if _, err := NewDaemonSpawner("127.0.0.1:1", 0).open(context.Background(), ""); err == nil {
		t.Fatal("probe of dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead probe took %v, want prompt failure", elapsed)
	}
}

// TestLaunchProbeFailFast drives the pre-launch health check through
// Launch: with no daemon listening, or no agent binary where the spawner
// expects one, the launch must fail with a per-host report before ever
// spawning or waiting out the rendezvous timeout.
func TestLaunchProbeFailFast(t *testing.T) {
	sshStub(t)
	for _, sp := range []Spawner{
		NewDaemonSpawner("127.0.0.1:1", 0),
		NewExecSpawner("/nonexistent-mph-agent"),
		NewSSHSpawner("/nonexistent-mph-agent", nil),
	} {
		spec := &LaunchSpec{
			Procs:   []Proc{{Rank: 0, Host: "nodeA", Argv: []string{"/bin/true"}}},
			Spawner: sp,
			Timeout: 60 * time.Second,
			Quiet:   true,
		}
		start := time.Now()
		err := Launch(context.Background(), spec)
		if err == nil {
			t.Fatalf("%s: launch succeeded with nothing to spawn through", sp.Name())
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("%s: probe failure took %v; must fail fast, not wait out the rendezvous", sp.Name(), elapsed)
		}
		if !strings.Contains(err.Error(), "host check failed") || !strings.Contains(err.Error(), "nodeA") {
			t.Errorf("%s: error %q is not a per-host probe report", sp.Name(), err)
		}
	}
}

// TestOneConnectionPerHost: the ping and the spawn share one connection, so
// a two-host job reaches each host once — two agents started under the exec
// backend, two connections accepted by a daemon.
func TestOneConnectionPerHost(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	launch := func(t *testing.T, sp Spawner) {
		t.Helper()
		spec := &LaunchSpec{
			Procs: []Proc{
				{Rank: 0, Host: "nodeA", Argv: []string{self, "rank"}},
				{Rank: 1, Host: "nodeB", Argv: []string{self, "rank"}},
			},
			Spawner: sp,
			Timeout: 30 * time.Second,
			Quiet:   true,
		}
		if err := Launch(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("exec", func(t *testing.T) {
		agent, _ := testAgent(t)
		launch(t, NewExecSpawner(agent))
		if n := len(agentStarts(t, agent)); n != 2 {
			t.Errorf("a two-host job started %d agents, want 2", n)
		}
	})
	t.Run("daemon", func(t *testing.T) {
		d, sp := testDaemon(t)
		launch(t, sp)
		if n := d.ln.(*countingListener).accepted.Load(); n != 2 {
			t.Errorf("a two-host job opened %d daemon connections, want 2", n)
		}
	})
}

// TestPingBoundSparesTheBlock: the bound on open's ping covers the ping
// only. A block that runs past it, on the connection the ping went over,
// must run to its own clean exit on every carrier — the pipe carriers' dial
// context is not hung up, the TCP deadline is cleared.
func TestPingBoundSparesTheBlock(t *testing.T) {
	for _, c := range carriers {
		t.Run(c.name, func(t *testing.T) {
			sp, _ := c.start(t)
			conn, err := openRemote(context.Background(), sp, "nodeX", 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			block := Block{Size: 1, Rendezvous: "127.0.0.1:1",
				Procs: []Proc{{Rank: 0, Argv: []string{"/bin/sh", "-c", "sleep 0.3"}}}}
			h, err := conn.spawn(block)
			if err != nil {
				t.Fatal(err)
			}
			if err := collectExits(t, h, 1)[0]; err != nil {
				t.Errorf("a block running past the ping's bound failed: %v", err)
			}
		})
	}
}
