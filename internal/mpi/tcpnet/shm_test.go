package tcpnet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mph/internal/mpi"
)

// In-process worlds share one hostname, so every startWorld pair is
// "same-host" and the intra-host channel engages by default — exactly the
// mphrun single-host placement these tests model.

// TestShmPayloadChannel is the positive path: with a low rendezvous
// threshold, a large payload between two same-host ranks must move over the
// intra-host channel (sender and receiver shm counters agree), arrive
// byte-identical, and still be counted in the channel-agnostic RData/byte
// totals so job-wide reconciliation holds. Small eager traffic must stay off
// the channel.
func TestShmPayloadChannel(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	defer envs[0].Close()
	defer envs[1].Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	exchange(t, c0, c1, 1, []byte("eager")) // below threshold: plain TCP
	payload := bytes.Repeat([]byte{0xAB}, 256<<10)
	exchange(t, c0, c1, 2, payload)

	nc0, nc1 := &envs[0].Perf().Net, &envs[1].Perf().Net
	if got := nc0.ShmChannels.Load(); got != 1 {
		t.Errorf("sender ShmChannels = %d, want 1", got)
	}
	if got := nc0.ShmRDataOut.Load(); got != 1 {
		t.Errorf("sender ShmRDataOut = %d, want 1", got)
	}
	if got := nc0.RDataOut.Load(); got != 1 {
		t.Errorf("sender RDataOut = %d, want 1 (shm frames must stay in the totals)", got)
	}
	if got := nc1.ShmRDataIn.Load(); got != 1 {
		t.Errorf("receiver ShmRDataIn = %d, want 1", got)
	}
	if got := nc1.RDataIn.Load(); got != 1 {
		t.Errorf("receiver RDataIn = %d, want 1 (shm frames must stay in the totals)", got)
	}
	if out, in := nc0.ShmBytesOut.Load(), nc1.ShmBytesIn.Load(); out == 0 || out != in {
		t.Errorf("shm byte counters disagree: out %d, in %d", out, in)
	}
	if got := nc0.ShmFallbacks.Load(); got != 0 {
		t.Errorf("sender ShmFallbacks = %d, want 0", got)
	}
}

// TestShmDisabled pins the channel's scope: ranks on different hosts
// negotiate no channel, no local socket carries their payloads, and the
// transfer completes over TCP.
func TestShmDisabled(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	splitHosts(envs)
	defer envs[0].Close()
	defer envs[1].Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	exchange(t, c0, c1, 3, bytes.Repeat([]byte{0xCD}, 128<<10))

	nc0 := &envs[0].Perf().Net
	if got := nc0.ShmChannels.Load(); got != 0 {
		t.Errorf("ShmChannels = %d between hosts, want 0", got)
	}
	if got := nc0.ShmRDataOut.Load(); got != 0 {
		t.Errorf("ShmRDataOut = %d between hosts, want 0", got)
	}
	if got := nc0.RDataOut.Load(); got != 1 {
		t.Errorf("RDataOut = %d, want 1 (TCP rendezvous)", got)
	}
}

// TestShmNegotiationFallback severs the advertised socket before the first
// payload: the lazy dial fails, the transfer falls back to TCP transparently
// (counted in ShmFallbacks), and the payload arrives intact.
func TestShmNegotiationFallback(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	defer envs[0].Close()
	defer envs[1].Close()

	// Open the receiver's local listener and close it before any
	// rendezvous: its hello advertisement will go out — the path survives —
	// but the sender's dial must fail.
	trs[1].openShm()
	trs[1].shmLn.Load().Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	exchange(t, c0, c1, 6, bytes.Repeat([]byte{0x77}, 128<<10))

	nc0 := &envs[0].Perf().Net
	if got := nc0.ShmRDataOut.Load(); got != 0 {
		t.Errorf("ShmRDataOut = %d after failed negotiation, want 0", got)
	}
	if got := nc0.RDataOut.Load(); got != 1 {
		t.Errorf("RDataOut = %d, want 1 (TCP fallback)", got)
	}
	if got := nc0.ShmFallbacks.Load(); got == 0 {
		t.Error("failed negotiation not counted in ShmFallbacks")
	}
}

// TestFaultShmSeverFallsBackToTCP drives the frame=shm fault action: the
// established local channel is severed immediately before the payload write,
// the write fails, and the transfer must complete over TCP with the fallback
// counted — the chaos proof that a mid-run channel loss is survivable.
func TestFaultShmSeverFallsBackToTCP(t *testing.T) {
	t.Setenv(EnvFault, "sever,rank=0,frame=shm,times=1")
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	defer envs[0].Close()
	defer envs[1].Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	payload := bytes.Repeat([]byte{0x42}, 256<<10)
	exchange(t, c0, c1, 7, payload) // severed on shm, must arrive via TCP
	exchange(t, c0, c1, 8, payload) // channel re-dials and carries this one

	nc0 := &envs[0].Perf().Net
	if got := nc0.FaultsInjected.Load(); got != 1 {
		t.Errorf("FaultsInjected = %d, want 1", got)
	}
	if got := nc0.ShmFallbacks.Load(); got != 1 {
		t.Errorf("ShmFallbacks = %d, want 1", got)
	}
	if got := nc0.RDataOut.Load(); got != 2 {
		t.Errorf("RDataOut = %d, want 2", got)
	}
	if got := nc0.ShmRDataOut.Load(); got != 1 {
		t.Errorf("ShmRDataOut = %d, want 1 (second transfer re-dials the channel)", got)
	}
}

// TestChaosShmSeverMidRData kills the receiver inside the rendezvous data
// window (between its CTS and the payload landing) while the payload is
// routed over the intra-host channel: the sender's local write fails, its
// TCP fallback finds the peer dead, and the send must surface ErrPeerLost —
// never hang — exactly like the CTS-waiter sweep promises.
func TestChaosShmSeverMidRData(t *testing.T) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	// Hold the sender at the shm fault point for 750ms after CTS, giving the
	// test a deterministic window to sever the receiver mid-transfer.
	t.Setenv(EnvFault, "delay,rank=0,frame=shm,dur=750ms")

	const victim = 1
	trs, envs := startWorld(t, 2)
	defer envs[0].Close() // the victim's env is deliberately never closed

	c0 := mpi.WorldComm(envs[0])
	c1 := mpi.WorldComm(envs[victim])

	recvErr := make(chan error, 1)
	go func() {
		_, _, err := c1.Recv(0, 9)
		recvErr <- err
	}()
	sendErr := make(chan error, 1)
	go func() {
		sendErr <- c0.Send(victim, 9, bytes.Repeat([]byte{0x99}, 1<<20))
	}()

	// Wait for the CTS to reach the sender — it is now inside the delayed
	// shm fault point — then kill the receiver's entire network, local
	// channel included.
	deadline := time.Now().Add(5 * time.Second)
	for envs[0].Perf().Net.CTSIn.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("CTS never reached the sender")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trs[victim].severAll()

	select {
	case err := <-sendErr:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != victim {
			t.Fatalf("shm rendezvous send returned %v, want ErrPeerLost{Rank: %d}", err, victim)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shm rendezvous sender hung on a dead same-host receiver")
	}
}

// TestFirstContactInClosingBarrier is the regression test for the reverse
// dial: two same-host ranks whose first and only contact is a Barrier they
// leave by closing. When a hello made the receiver dial back from its
// readLoop to offer its channel, that dial could meet a listener the peer
// had already closed and sit in the retry budget. With the path riding the
// hello, one directed contact is one connection and nothing is retried.
func TestFirstContactInClosingBarrier(t *testing.T) {
	for i := 0; i < 50; i++ {
		_, envs := startWorld(t, 2)
		errs := make(chan error, len(envs))
		for _, env := range envs {
			go func(env *mpi.Env) {
				err := mpi.WorldComm(env).Barrier()
				if cerr := env.Close(); err == nil {
					err = cerr
				}
				// Close has waited for every readLoop, so the count is final.
				if retries := env.Perf().Net.DialRetries.Load(); err == nil && retries != 0 {
					err = fmt.Errorf("DialRetries = %d, want 0", retries)
				}
				errs <- err
			}(env)
		}
		for range envs {
			if err := <-errs; err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
}

// shmDirs lists the intra-host socket directories under dir.
func shmDirs(t *testing.T, dir string) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, "mph-shm-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// exchangeBoth sends payload from rank 0 to rank 1 and then from rank 1 to
// rank 0, each receive posted concurrently with its send.
func exchangeBoth(t *testing.T, envs []*mpi.Env, tag int, payload []byte) {
	t.Helper()
	for src := 0; src < 2; src++ {
		sender, receiver := mpi.WorldComm(envs[src]), mpi.WorldComm(envs[1-src])
		got := make(chan []byte, 1)
		go func() {
			data, _, err := receiver.Recv(src, tag)
			if err != nil {
				t.Errorf("rank %d: recv from %d: %v", 1-src, src, err)
			}
			got <- data
		}()
		if err := sender.Send(1-src, tag, payload); err != nil {
			t.Fatalf("rank %d: send %d bytes: %v", src, len(payload), err)
		}
		if data := <-got; !bytes.Equal(data, payload) {
			t.Fatalf("rank %d → %d: %d bytes arrived, want the %d sent", src, 1-src, len(data), len(payload))
		}
	}
}

// TestShmListenerLazy: two same-host ranks that take no rendezvous never
// open the intra-host channel — no listener, no socket directory, during
// the run or after Close.
func TestShmListenerLazy(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	trs, envs := startWorld(t, 2)
	exchangeBoth(t, envs, 1, []byte("eager"))
	for r, tr := range trs {
		if tr.shmLn.Load() != nil {
			t.Errorf("rank %d opened an intra-host listener with no rendezvous", r)
		}
	}
	if dirs := shmDirs(t, tmp); len(dirs) != 0 {
		t.Errorf("socket directories during the run: %v", dirs)
	}
	for _, env := range envs {
		env.Close()
	}
	if dirs := shmDirs(t, tmp); len(dirs) != 0 {
		t.Errorf("socket directories after Close: %v", dirs)
	}
}

// TestShmAdvertisedOnOpenStream: when both TCP streams already exist — their
// hellos went out before either rank had a listener — the first rendezvous
// each way still moves over the intra-host channel: the receiver's hello
// ahead of its CTS carries the path.
func TestShmAdvertisedOnOpenStream(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 64<<10)
	defer envs[0].Close()
	defer envs[1].Close()
	exchangeBoth(t, envs, 1, []byte("eager"))
	for r, tr := range trs {
		tr.peers[1-r].mu.Lock()
		if tr.peers[1-r].tcp == nil {
			t.Fatalf("rank %d has no stream to rank %d after the eager exchange", r, 1-r)
		}
		tr.peers[1-r].mu.Unlock()
	}
	exchangeBoth(t, envs, 2, bytes.Repeat([]byte{0x5A}, 1<<20))
	var out, fallbacks uint64
	for _, env := range envs {
		out += env.Perf().Net.ShmRDataOut.Load()
		fallbacks += env.Perf().Net.ShmFallbacks.Load()
	}
	if out != 2 || fallbacks != 0 {
		t.Errorf("ShmRDataOut = %d, ShmFallbacks = %d over both ranks; want 2, 0", out, fallbacks)
	}
}

// TestShmListenerUnmakeable: with TMPDIR too long for a socket path, the
// receiver's listener cannot be made. Every rendezvous still completes over
// TCP, the failure is counted once and not retried, and nothing is left
// behind.
func TestShmListenerUnmakeable(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), strings.Repeat("d", 120))
	if err := os.Mkdir(tmp, 0o700); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	for tag := 1; tag <= 3; tag++ {
		exchange(t, c0, c1, tag, bytes.Repeat([]byte{byte(tag)}, 128<<10))
	}
	var rdata, shm, fallbacks uint64
	for _, env := range envs {
		nc := &env.Perf().Net
		rdata, shm, fallbacks = rdata+nc.RDataOut.Load(), shm+nc.ShmRDataOut.Load(), fallbacks+nc.ShmFallbacks.Load()
	}
	if rdata != 3 || shm != 0 || fallbacks != 1 {
		t.Errorf("RDataOut = %d, ShmRDataOut = %d, ShmFallbacks = %d; want 3, 0, 1", rdata, shm, fallbacks)
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Errorf("%d entries left in TMPDIR during the run", len(entries))
	}
	for _, env := range envs {
		env.Close()
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Errorf("%d entries left in TMPDIR after Close", len(entries))
	}
}

// TestHelloBytesUncounted: no hello counts as traffic on either side, the
// second hello that advertises the intra-host listener on an open stream
// included, so over a clean two-rank job the bytes read equal the bytes
// written.
func TestHelloBytesUncounted(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 64<<10)
	exchangeBoth(t, envs, 1, []byte("eager"))
	exchangeBoth(t, envs, 2, bytes.Repeat([]byte{0x5A}, 1<<20))
	var in, out, shm uint64
	for _, env := range envs {
		env.Close()
		nc := &env.Perf().Net
		in, out, shm = in+nc.BytesIn.Load(), out+nc.BytesOut.Load(), shm+nc.ShmRDataOut.Load()
	}
	if shm != 2 {
		t.Fatalf("ShmRDataOut = %d over both ranks, want 2: no second hello went out", shm)
	}
	if in != out {
		t.Errorf("BytesIn = %d, BytesOut = %d over both ranks; want them equal", in, out)
	}
}
