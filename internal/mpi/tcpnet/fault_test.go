package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/wire"
)

func TestFaultSpecParse(t *testing.T) {
	if fs, err := ParseFaultSpec(""); err != nil || fs != nil {
		t.Errorf("empty spec: %v %v", fs, err)
	}
	if fs, err := ParseFaultSpec("  ;  "); err != nil || fs != nil {
		t.Errorf("blank rules: %v %v", fs, err)
	}

	fs, err := ParseFaultSpec("sever,rank=1,peer=2,after=3,times=2; delay,dur=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.rules) != 2 {
		t.Fatalf("got %d rules", len(fs.rules))
	}
	r := fs.rules[0]
	if r.action != "sever" || r.rank != 1 || r.peer != 2 || r.after != 3 || r.times != 2 {
		t.Errorf("rule 0 parsed as %+v", r)
	}
	if r.frame != framePacket {
		t.Errorf("frame filter should default to packet, got %q", r.frame)
	}
	if fs.rules[1].action != "delay" || fs.rules[1].dur != 5*time.Millisecond {
		t.Errorf("rule 1 parsed as %+v", fs.rules[1])
	}

	for _, kind := range []string{framePacket, frameRTS, frameCTS, frameData, frameShm, frameAny} {
		fs, err := ParseFaultSpec("drop,frame=" + kind)
		if err != nil {
			t.Fatalf("frame=%s rejected: %v", kind, err)
		}
		if fs.rules[0].frame != kind {
			t.Errorf("frame=%s parsed as %q", kind, fs.rules[0].frame)
		}
	}

	for _, bad := range []string{
		"explode",           // unknown action
		"drop,shape=round",  // unknown key
		"drop,rank=x",       // bad int
		"drop,rank=-2",      // negative
		"delay,dur=fast",    // bad duration
		"drop,rank",         // no '='
		"sever,peer=1;boom", // second rule bad
		"drop,frame=ssend",  // unknown frame kind
		"drop,frame=ack",    // the Ssend release, gone with Ssend
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultSpecFiring drives sendAction through the after/times/filter
// state machine: the rule lets `after` matching sends through, then fires
// at most `times` times, and never advances on non-matching traffic.
func TestFaultSpecFiring(t *testing.T) {
	fs, err := ParseFaultSpec("drop,rank=0,peer=1,after=2,times=1")
	if err != nil {
		t.Fatal(err)
	}
	// Non-matching traffic is invisible to the rule.
	for i := 0; i < 5; i++ {
		if act := fs.sendAction(0, 2, framePacket); act.kind != "" {
			t.Fatalf("rule fired for wrong peer: %+v", act)
		}
		if act := fs.sendAction(1, 1, framePacket); act.kind != "" {
			t.Fatalf("rule fired for wrong rank: %+v", act)
		}
		if act := fs.sendAction(0, 1, frameRTS); act.kind != "" {
			t.Fatalf("packet rule fired for rts frame: %+v", act)
		}
	}
	// Two matching sends pass unharmed, the third fires, the fourth passes
	// again (times=1 exhausted).
	for i, want := range []string{"", "", "drop", ""} {
		if act := fs.sendAction(0, 1, framePacket); act.kind != want {
			t.Fatalf("matching send %d: got %q, want %q", i, act.kind, want)
		}
	}
}

// TestFaultSpecFrameFiring exercises the frame= filter: a frame-scoped rule
// counts only sends of its own kind toward after=, and frame=any matches
// every fault point.
func TestFaultSpecFrameFiring(t *testing.T) {
	fs, err := ParseFaultSpec("sever,frame=cts,after=1")
	if err != nil {
		t.Fatal(err)
	}
	// Packet and data traffic never advances a cts-scoped rule.
	for i := 0; i < 4; i++ {
		if act := fs.sendAction(0, 1, framePacket); act.kind != "" {
			t.Fatalf("cts rule fired for packet: %+v", act)
		}
		if act := fs.sendAction(0, 1, frameData); act.kind != "" {
			t.Fatalf("cts rule fired for data: %+v", act)
		}
	}
	// First CTS passes (after=1), second fires.
	if act := fs.sendAction(0, 1, frameCTS); act.kind != "" {
		t.Fatalf("cts rule armed too early: %+v", act)
	}
	if act := fs.sendAction(0, 1, frameCTS); act.kind != "sever" {
		t.Fatalf("cts rule did not fire: %+v", act)
	}

	any, err := ParseFaultSpec("delay,frame=any,times=0,dur=1ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{framePacket, frameRTS, frameCTS, frameData, frameShm} {
		if act := any.sendAction(3, 4, kind); act.kind != "delay" {
			t.Fatalf("frame=any missed %s: %+v", kind, act)
		}
	}

	// A shm-scoped rule is invisible to TCP fault points and fires only at
	// the intra-host payload write.
	shm, err := ParseFaultSpec("sever,frame=shm")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{framePacket, frameRTS, frameCTS, frameData} {
		if act := shm.sendAction(0, 1, kind); act.kind != "" {
			t.Fatalf("shm rule fired for %s: %+v", kind, act)
		}
	}
	if act := shm.sendAction(0, 1, frameShm); act.kind != "sever" {
		t.Fatalf("shm rule did not fire at the shm fault point: %+v", act)
	}
}

// TestFaultDialRetrySucceedsOnceListenerAppears starts dialing before the
// listener exists: the bounded backoff must keep retrying and connect as
// soon as the address comes alive.
func TestFaultDialRetrySucceedsOnceListenerAppears(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port; the dial now targets a dead address

	lnCh := make(chan net.Listener, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			lnCh <- nil
			return
		}
		lnCh <- ln2
	}()

	cfg := defaultConfig()
	cfg.dialTimeout = 5 * time.Second
	cfg.dialBase = 20 * time.Millisecond
	cfg.dialMax = 200 * time.Millisecond
	retries := 0
	conn, err := dialRetry(addr, cfg, nil, nil, func(attempt int, wait time.Duration) {
		retries++
		if wait <= 0 {
			t.Errorf("retry %d scheduled with wait %v", attempt, wait)
		}
	})
	ln2 := <-lnCh
	if ln2 != nil {
		defer ln2.Close()
	}
	if err != nil {
		t.Fatalf("dialRetry gave up: %v (after %d retries)", err, retries)
	}
	conn.Close()
	if retries == 0 {
		t.Error("dial succeeded without retrying against a dead address")
	}
}

// TestFaultDialRetryExhausts bounds the failure side: against an address
// that never comes up, dialRetry must consume its budget — several attempts,
// not one — and return an error instead of hanging.
func TestFaultDialRetryExhausts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := defaultConfig()
	cfg.dialTimeout = 400 * time.Millisecond
	cfg.dialBase = 20 * time.Millisecond
	cfg.dialMax = 100 * time.Millisecond
	retries := 0
	start := time.Now()
	_, err = dialRetry(addr, cfg, nil, nil, func(int, time.Duration) { retries++ })
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if retries < 2 {
		t.Errorf("only %d retries before giving up", retries)
	}
	if elapsed > 5*time.Second {
		t.Errorf("dialRetry overshot its 400ms budget by far: %v", elapsed)
	}
}

// startWorld boots a rendezvous plus n in-process TCP endpoints and returns
// each rank's transport and environment. Cleanup is the caller's problem —
// chaos tests deliberately leave some ranks unclosed.
func startWorld(t testing.TB, n int) ([]*Transport, []*mpi.Env) {
	t.Helper()
	rv, err := bootstrap.NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()

	trs := make([]*Transport, n)
	envs := make([]*mpi.Env, n)
	var wg sync.WaitGroup
	var initErr error
	var mu sync.Mutex
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, env, err := initTransport(rank, n, rv.Advertised())
			if err != nil {
				mu.Lock()
				initErr = fmt.Errorf("rank %d init: %w", rank, err)
				mu.Unlock()
				return
			}
			trs[rank] = tr
			envs[rank] = env
		}(r)
	}
	wg.Wait()
	if initErr != nil {
		t.Fatal(initErr)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	return trs, envs
}

// setEagerThreshold moves every transport's eager/rendezvous switch to n
// payload bytes: 0 sends every non-empty payload by rendezvous, math.MaxInt
// none. Call it before the first send.
func setEagerThreshold(trs []*Transport, n int) {
	for _, tr := range trs {
		tr.cfg.eagerThreshold = n
	}
}

// splitHosts publishes a distinct host label for every rank, so no pair
// shares a host and rendezvous payloads stay on TCP instead of taking the
// intra-host channel. Call it before the first send.
func splitHosts(envs []*mpi.Env) {
	hosts := make([]string, len(envs))
	for r := range hosts {
		hosts[r] = fmt.Sprintf("host%d", r)
	}
	for _, env := range envs {
		env.SetHosts(hosts)
	}
}

// TestFaultSeverRecovery injects a mid-run connection loss on the send path
// ("sever" action): the severed connection must be transparently redialed,
// both messages must arrive, and the injection must be counted.
func TestFaultSeverRecovery(t *testing.T) {
	t.Setenv(EnvFault, "sever,rank=0,peer=1,after=1,times=1")
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	if trs[0].faults == nil {
		t.Fatal("MPH_FAULT was not picked up")
	}

	c0 := mpi.WorldComm(envs[0])
	c1 := mpi.WorldComm(envs[1])
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			data, _, err := c1.Recv(0, 3)
			if err != nil {
				done <- err
				return
			}
			if string(data) != fmt.Sprintf("msg%d", i) {
				done <- fmt.Errorf("got %q", data)
				return
			}
			if i == 0 { // msg0 is matched: the sender may go on
				if err := c1.Send(0, 4, nil); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()

	// msg0 is matched before the severed-and-redialed msg1 can race it on a
	// fresh connection: two TCP streams have no mutual order.
	if err := c0.Send(1, 3, []byte("msg0")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c0.Recv(1, 4); err != nil {
		t.Fatal(err)
	}
	// The second send hits the sever rule, loses its connection just before
	// the write, and must redial-and-deliver without surfacing an error.
	if err := c0.Send(1, 3, []byte("msg1")); err != nil {
		t.Fatalf("send across severed connection: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver hung after sever")
	}
	if got := envs[0].Perf().Net.FaultsInjected.Load(); got != 1 {
		t.Errorf("FaultsInjected = %d, want 1", got)
	}
	if got := envs[0].Perf().Net.Dials.Load(); got < 2 {
		t.Errorf("Dials = %d, want >= 2 (one peer dialled, then redialled after the sever)", got)
	}
}

// TestFaultSessionEndDeclaresPeerDown: a rank's death is its session with
// the launcher ending. Rank 1 registers, runs no transport, and hangs up
// while rank 0 is blocked in a receive from it: the launcher's down line
// must fail that receive with *mpi.ErrPeerLost, counted as a loss — rank 1
// said no bye.
func TestFaultSessionEndDeclaresPeerDown(t *testing.T) {
	rv, err := bootstrap.NewRendezvousBind("", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()
	zombie := registerZombie(rv, 1, "127.0.0.1:9")

	_, env, err := initTransport(0, 2, rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	z := <-zombie
	if z == nil {
		t.Fatal("the zombie did not register")
	}

	blocked := make(chan error, 1)
	go func() {
		_, _, err := mpi.WorldComm(env).Recv(1, 1)
		blocked <- err
	}()
	z.Close()
	select {
	case err := <-blocked:
		if rank, ok := mpi.IsPeerLost(err); !ok || rank != 1 {
			t.Fatalf("blocked recv returned %v, want ErrPeerLost{Rank: 1}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a rank whose session ended was never declared dead")
	}
	if lost := env.Perf().Net.PeersLost.Load(); lost != 1 {
		t.Errorf("PeersLost = %d, want 1", lost)
	}
}

// registerZombie stands in for a rank that registers an endpoint with the
// rendezvous and then runs no transport. It delivers the session (nil if
// registration failed), which stays open until the test closes it.
func registerZombie(rv *bootstrap.Rendezvous, rank int, addr string) <-chan *bootstrap.Session {
	zombie := make(chan *bootstrap.Session, 1)
	go func() {
		s, _ := bootstrap.Register(rv.Advertised(), rank, bootstrap.Endpoint{Addr: addr}, 10*time.Second)
		zombie <- s
	}()
	return zombie
}

// Session records as a launcher writes and reads them (package wire), the
// kinds numbered as in internal/bootstrap/record.go, where
// TestSessionKindNumbers pins them. The fake launchers below speak them.
const (
	sessionRegister = 1
	sessionBook     = 2
	sessionDown     = 8
)

// readRegistration reads a rank's register record off conn and returns the
// address it registered; anything else fails the test, naming what it read.
func readRegistration(t *testing.T, conn net.Conn) string {
	var rank int
	var addr string
	kind, body, err := wire.ReadRecord(conn)
	if err == nil && kind != sessionRegister {
		err = fmt.Errorf("a kind %d record", kind)
	}
	if err == nil {
		err = wire.Decode(body, func(c *wire.Codec) {
			var host string
			wire.Int(c, &rank)
			c.String(&addr)
			c.String(&host)
		})
	}
	if err != nil {
		t.Errorf("fake launcher: want a kind %d register record: %v", sessionRegister, err)
	}
	return addr
}

// bookRecord is a book that asks for no telemetry, of the given addresses
// by rank, every host unknown.
func bookRecord(addrs ...string) []byte {
	return wire.AppendRecord(nil, sessionBook, func(c *wire.Codec) {
		var sync bool
		var every int64
		var host string
		c.Bool(&sync)
		wire.Int(c, &every)
		c.Len(len(addrs), 8)
		for _, addr := range addrs {
			c.String(&addr)
			c.String(&host)
		}
	})
}

// downRecord tells a rank that rank's session ended, cleanly if final.
func downRecord(rank int, final bool) []byte {
	return wire.AppendRecord(nil, sessionDown, func(c *wire.Codec) {
		wire.Int(c, &rank)
		c.Bool(&final)
	})
}

// TestDownLineNamingNoPeerIgnored: down lines come from outside the process,
// so one naming this rank, a negative rank or a rank past the world is
// ignored — no panic, no verdict on this rank, the session still served —
// and the one naming a real peer still takes effect: final, so neither
// printed nor counted as a loss.
func TestDownLineNamingNoPeerIgnored(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() { // a launcher of a world of 2 whose rank 1 never registers
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(bookRecord(readRegistration(t, conn), "127.0.0.1:9"))
		for _, rank := range []int{0, -1, 2, 1 << 40} {
			conn.Write(downRecord(rank, false))
		}
		conn.Write(downRecord(1, true))
		<-hold
	}()
	tr, env, err := initTransport(0, 2, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	world := mpi.WorldComm(env)
	if _, _, err := world.Recv(1, 1); err == nil {
		t.Fatal("receive from rank 1 succeeded")
	} else if rank, ok := mpi.IsPeerLost(err); !ok || rank != 1 {
		t.Fatalf("receive from rank 1 = %v, want ErrPeerLost{Rank: 1}", err)
	}
	if err := tr.peers[0].deadErr(); err != nil {
		t.Fatalf("a down line naming this rank condemned it: %v", err)
	}
	if err := world.Send(0, 2, []byte("self")); err != nil {
		t.Fatalf("send to self after the down lines: %v", err)
	}
	if data, _, err := world.Recv(0, 2); err != nil || string(data) != "self" {
		t.Fatalf("receive from self = %q, %v", data, err)
	}
	if lost := env.Perf().Net.PeersLost.Load(); lost != 0 {
		t.Errorf("PeersLost = %d after a final down line, want 0", lost)
	}
}

// TestChaosDownLineEndsDialRetry: a send already retrying its dial when the
// launcher's down line for the peer arrives must give up at once with the
// verdict, not spend the rest of its 20 s dial budget. Rank 1's address is a
// closed listener, so rank 0's send to it is refused and backs off; the down
// line must end it within a second, counted as one loss.
func TestChaosDownLineEndsDialRetry(t *testing.T) {
	t.Setenv(EnvDialTimeout, "20s")
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sendDown := make(chan struct{})
	hold := make(chan struct{})
	defer close(hold)
	go func() { // a launcher of a world of 2 whose rank 1 never listens
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(bookRecord(readRegistration(t, conn), deadAddr))
		<-sendDown
		conn.Write(downRecord(1, false))
		<-hold
	}()
	_, env, err := initTransport(0, 2, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	sent := make(chan error, 1)
	go func() { sent <- mpi.WorldComm(env).Send(1, 1, []byte("to a dead rank")) }()
	for env.Perf().Net.DialRetries.Load() == 0 {
		select {
		case err := <-sent:
			t.Fatalf("send returned %v before its dial retried", err)
		case <-time.After(time.Millisecond):
		}
	}
	close(sendDown)
	start := time.Now()
	select {
	case err := <-sent:
		var lost *mpi.ErrPeerLost
		if !errors.As(err, &lost) || lost.Rank != 1 || !strings.Contains(lost.Cause.Error(), "session with the launcher ended") {
			t.Fatalf("send returned %v, want ErrPeerLost{Rank: 1} carrying the launcher's verdict", err)
		}
		t.Logf("send failed %v after the down line", time.Since(start))
	case <-time.After(time.Second):
		t.Fatal("a send mid-dial kept retrying after its peer's down line")
	}
	if lost := env.Perf().Net.PeersLost.Load(); lost != 1 {
		t.Errorf("PeersLost = %d, want 1", lost)
	}
}

// TestFaultAbortFrameUnblocks delivers the launcher's abort exactly as
// mphrun does when a child dies — Rendezvous.Abort, over the rank's session —
// and checks that a blocked receive fails with the typed abort error.
func TestFaultAbortFrameUnblocks(t *testing.T) {
	rv, err := bootstrap.NewRendezvousBind("", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()
	zombie := registerZombie(rv, 1, "127.0.0.1:9")

	_, env, err := initTransport(0, 2, rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if z := <-zombie; z != nil {
		defer z.Close() // a zombie that hung up would be a death, not an abort
	}

	blocked := make(chan error, 1)
	go func() {
		_, _, err := mpi.WorldComm(env).Recv(1, 1)
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond)

	rv.Abort(5)
	select {
	case err := <-blocked:
		var ae *mpi.AbortError
		if !errors.As(err, &ae) || ae.Code != 5 || ae.Origin != -1 {
			t.Fatalf("blocked recv returned %v, want AbortError{Code: 5, Origin: -1}", err)
		}
		if !errors.Is(err, mpi.ErrAborted) {
			t.Errorf("%v is not ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort frame did not unblock the receive")
	}
	if got := env.Perf().Net.AbortsIn.Load(); got != 1 {
		t.Errorf("AbortsIn = %d, want 1", got)
	}
}

// TestFaultAbortRelayedToUnconnectedRank: an abort reaches a rank its origin
// never talked to. Ranks 0 and 2 have exchanged no traffic — no stream either
// way — and rank 2 is blocked in Recv(1, …); rank 0's Comm.Abort(9) writes on
// the streams rank 0 has and once on its session, and it is the launcher's
// relay that releases rank 2, with the abort attributed to rank 0.
func TestFaultAbortRelayedToUnconnectedRank(t *testing.T) {
	trs, envs := startWorld(t, 3)
	for _, env := range envs {
		defer env.Close()
	}
	blocked := make(chan error, 1)
	go func() {
		_, _, err := mpi.WorldComm(envs[2]).Recv(1, 1)
		blocked <- err
	}()
	mpi.WorldComm(envs[0]).Abort(9)
	select {
	case err := <-blocked:
		var ae *mpi.AbortError
		if !errors.As(err, &ae) || ae.Code != 9 || ae.Origin != 0 {
			t.Fatalf("blocked recv returned %v, want AbortError{Code: 9, Origin: 0}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abort never reached a rank its origin had no stream to")
	}
	if trs[0].peers[2].established() != nil {
		t.Error("rank 0 dialed rank 2 to abort it")
	}
	if got := envs[2].Perf().Net.AbortsIn.Load(); got != 1 {
		t.Errorf("rank 2 AbortsIn = %d, want 1 (the relay)", got)
	}
}

// TestChaosDieFaultMidRing injects the MPH_FAULT "die" action so a rank
// crashes between two steps of one Allreduce — an 8 KiB payload over five
// ranks, so every step is one eager frame, on the flat tree: rank 2 sends
// its partial sum up to rank 0, receives the broadcast and dies forwarding
// it to rank 3, so its connections vanish mid-collective exactly as a
// process crash. (The test keeps the name it had when the collective was a
// ring.) Rank 3, blocked on a broadcast only rank 2 can supply, must unblock
// with *mpi.ErrPeerLost and escalate to Abort — the handshake's policy. The
// ranks the broadcast reached finish that Allreduce and block in the next
// one, which needs rank 2's contribution: each must end there with
// ErrPeerLost or the typed abort error. Every survivor must end with one of
// the two typed failures; zero hangs.
func TestChaosDieFaultMidRing(t *testing.T) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	// Eager frames from rank 2: its reduce send, then its broadcast
	// forward. after=1 lets the first through and kills the rank on the
	// second — between two steps of one collective. The die action hangs up
	// its session too, so the launcher tells every survivor.
	t.Setenv(EnvFault, "die,rank=2,after=1")

	// The die action calls osExit after severing; in-test the "process" is a
	// goroutine, so death is modelled as goroutine exit.
	oldExit := osExit
	osExit = func(int) { runtime.Goexit() }
	t.Cleanup(func() { osExit = oldExit })

	const n, victim, elems = 5, 2, 1024
	trs, envs := startWorld(t, n)
	defer func() {
		for r, env := range envs {
			if r != victim {
				env.Close()
			}
		}
	}()
	if trs[victim].faults == nil {
		t.Fatal("MPH_FAULT was not picked up")
	}

	type outcome struct {
		rank int
		err  error
	}
	outcomes := make(chan outcome, n-1)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			world := mpi.WorldComm(envs[rank])
			var err error
			for round := 0; round < 2 && err == nil; round++ {
				_, err = world.AllreduceInts(make([]int64, elems), mpi.OpSum)
			}
			if rank == victim {
				return // unreachable: the die fault Goexits this goroutine
			}
			if _, lost := mpi.IsPeerLost(err); lost {
				world.Abort(3) // escalate collective peer-loss, like core.handshake
			}
			outcomes <- outcome{rank: rank, err: err}
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("chaos watchdog expired: a rank is hung mid-collective")
	}
	close(outcomes)
	got, sawPeerLost := 0, false
	for o := range outcomes {
		got++
		if o.err == nil {
			t.Errorf("rank %d: two allreduces succeeded without rank %d", o.rank, victim)
			continue
		}
		if rank, lost := mpi.IsPeerLost(o.err); lost {
			sawPeerLost = true
			if rank != victim {
				t.Errorf("rank %d: lost rank %d, want %d", o.rank, rank, victim)
			}
		} else if !errors.Is(o.err, mpi.ErrAborted) {
			t.Errorf("rank %d: error %v is neither ErrPeerLost nor ErrAborted", o.rank, o.err)
		}
	}
	if got != n-1 {
		t.Fatalf("got %d survivor outcomes, want %d", got, n-1)
	}
	if !sawPeerLost {
		t.Error("no survivor observed ErrPeerLost (the victim's child should)")
	}
	if ar := envs[0].Perf().Snapshot().Collectives["allreduce"]; ar.Tree == 0 || ar.Ring != 0 {
		t.Errorf("rank 0 routed its allreduces tree=%d ring=%d, want only trees", ar.Tree, ar.Ring)
	}
	if injected := envs[victim].Perf().Net.FaultsInjected.Load(); injected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", injected)
	}
}

// TestChaosDeathOfPeerReachedOnlyOutbound is the survivor that has only an
// outbound stream to a peer that dies: rank 0 has sent to rank 1, rank 1
// never to rank 0, so rank 0 reads nothing from rank 1 that could end. Rank 1
// crashes — listener, connections and session gone — while rank 0 is
// blocked in a receive from it. The launcher's down line reaches rank 0
// anyway: the receive must end in ErrPeerLost, not hang.
func TestChaosDeathOfPeerReachedOnlyOutbound(t *testing.T) {

	const victim = 1
	trs, envs := startWorld(t, 2)
	defer envs[0].Close() // the victim's env is deliberately never closed
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[victim])
	exchange(t, c0, c1, 1, []byte("one way"))
	if trs[0].peers[victim].established() == nil || trs[victim].peers[0].established() != nil {
		t.Fatal("want exactly one stream, rank 0 to rank 1")
	}

	recvErr := make(chan error, 1)
	go func() {
		_, _, err := c0.Recv(victim, 2)
		recvErr <- err
	}()
	start := time.Now()
	trs[victim].severAll()

	select {
	case err := <-recvErr:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != victim {
			t.Fatalf("Recv returned %v, want ErrPeerLost{Rank: %d}", err, victim)
		}
		t.Logf("receive failed after %v", time.Since(start))
	case <-time.After(10 * time.Second):
		t.Fatal("a receive from a dead peer reached only by an outbound stream hung")
	}
}

// TestChaosPeerDeathUnblocksSurvivors is the headline chaos scenario: a
// 4-rank MCME job (alpha on ranks 0-1, beta on ranks 2-3) completes the MPH
// handshake, then rank 3's network is severed as abruptly as a crash while
// every survivor is blocked in a receive from it. Every survivor must
// unblock with a typed peer-loss error once the victim's session ends — zero
// hangs.
func TestChaosPeerDeathUnblocksSurvivors(t *testing.T) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")

	regPath := filepath.Join(t.TempDir(), "processors_map.in")
	if err := os.WriteFile(regPath, []byte("BEGIN\nalpha\nbeta\nEND\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	const n, victim = 4, 3
	trs, envs := startWorld(t, n)
	defer func() {
		for r, env := range envs {
			if r != victim {
				env.Close()
			}
		}
	}()

	type outcome struct {
		rank    int
		err     error
		elapsed time.Duration
	}
	outcomes := make(chan outcome, n-1)
	var setupWG sync.WaitGroup
	ready := make(chan struct{})
	var wg sync.WaitGroup
	setupWG.Add(n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			world := mpi.WorldComm(envs[rank])
			name := "alpha"
			if rank >= 2 {
				name = "beta"
			}
			_, err := core.SingleComponentSetup(world, core.FileSource(regPath), name)
			setupWG.Done()
			if err != nil {
				if rank != victim {
					outcomes <- outcome{rank: rank, err: fmt.Errorf("setup: %w", err)}
				}
				return
			}
			<-ready
			if rank == victim {
				// The network-visible effect of a crash: listener, every
				// connection and the session gone, no bye.
				trs[victim].severAll()
				return
			}
			// Every survivor waits on the victim directly: a collective
			// would leave the ranks whose partners live blocked until some
			// rank escalates, which is the caller's decision (core's
			// handshake aborts), not the library's.
			start := time.Now()
			_, _, err = world.Recv(victim, 9)
			outcomes <- outcome{rank: rank, err: err, elapsed: time.Since(start)}
		}(r)
	}
	go func() { setupWG.Wait(); close(ready) }()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("chaos watchdog expired: a rank is hung")
	}
	close(outcomes)
	got := 0
	for o := range outcomes {
		got++
		if o.err == nil {
			t.Errorf("rank %d: receive succeeded without rank %d", o.rank, victim)
			continue
		}
		rank, lost := mpi.IsPeerLost(o.err)
		if !lost || rank != victim {
			t.Errorf("rank %d: error %v is not ErrPeerLost{Rank: %d}", o.rank, o.err, victim)
		}
		if o.elapsed > 5*time.Second {
			t.Errorf("rank %d: unblocked only after %v", o.rank, o.elapsed)
		}
	}
	if got != n-1 {
		t.Fatalf("got %d survivor outcomes, want %d", got, n-1)
	}
	if lost := envs[0].Perf().Net.PeersLost.Load(); lost == 0 {
		t.Error("rank 0 counted no lost peers")
	}
}
