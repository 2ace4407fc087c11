package tcpnet

import (
	"bytes"
	"fmt"
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

	// Close the receiver's local listener before any rendezvous: its hello
	// advertisement already went out (or will — the path string survives),
	// but the sender's dial must fail.
	trs[1].shmLn.Close()

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
