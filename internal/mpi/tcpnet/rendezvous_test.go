package tcpnet

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mph/internal/mpi"
)

// exchange runs one send/recv pair between two world comms, with the receive
// posted concurrently so rendezvous sends (which block until the consuming
// match) cannot deadlock the test.
func exchange(t testing.TB, sender, receiver *mpi.Comm, tag int, payload []byte) {
	t.Helper()
	done := make(chan error, 1)
	var got []byte
	go func() {
		data, _, err := receiver.Recv(0, tag)
		got = data
		done <- err
	}()
	if err := sender.Send(1, tag, payload); err != nil {
		t.Fatalf("send %d bytes: %v", len(payload), err)
	}
	if err := <-done; err != nil {
		t.Fatalf("recv %d bytes: %v", len(payload), err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload of %d bytes corrupted in transit (got %d bytes)", len(payload), len(got))
	}
}

// TestRendezvousThresholdBoundary pins the protocol switch exactly at the
// configured threshold: threshold-1 bytes goes eager, threshold and
// threshold+1 go rendezvous, and all three arrive intact.
func TestRendezvousThresholdBoundary(t *testing.T) {
	const threshold = 1024
	t.Setenv(EnvEagerThreshold, fmt.Sprint(threshold))
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	if got := trs[0].cfg.eagerThreshold; got != threshold {
		t.Fatalf("threshold resolved to %d, want %d", got, threshold)
	}

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	for i, size := range []int{threshold - 1, threshold, threshold + 1} {
		payload := bytes.Repeat([]byte{byte(0x10 + i)}, size)
		exchange(t, c0, c1, i, payload)
	}

	// threshold-1 went eager, threshold and threshold+1 went rendezvous.
	nc0, nc1 := &envs[0].Perf().Net, &envs[1].Perf().Net
	if got := nc0.RTSOut.Load(); got != 2 {
		t.Errorf("sender RTSOut = %d, want 2", got)
	}
	if got := nc0.RDataOut.Load(); got != 2 {
		t.Errorf("sender RDataOut = %d, want 2", got)
	}
	if got := nc0.CTSIn.Load(); got != 2 {
		t.Errorf("sender CTSIn = %d, want 2", got)
	}
	if got := nc1.RTSIn.Load(); got != 2 {
		t.Errorf("receiver RTSIn = %d, want 2", got)
	}
	if got := nc1.CTSOut.Load(); got != 2 {
		t.Errorf("receiver CTSOut = %d, want 2", got)
	}
	if got := nc1.RDataIn.Load(); got != 2 {
		t.Errorf("receiver RDataIn = %d, want 2", got)
	}
}

// TestRendezvousForced covers MPH_EAGER_THRESHOLD=0: every non-empty payload
// takes the rendezvous path, however small; empty payloads stay eager (there
// is no payload to avoid copying).
func TestRendezvousForced(t *testing.T) {
	t.Setenv(EnvEagerThreshold, "0")
	_, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	exchange(t, c0, c1, 0, []byte("x"))
	exchange(t, c0, c1, 1, []byte{})

	if got := envs[0].Perf().Net.RTSOut.Load(); got != 1 {
		t.Errorf("RTSOut = %d, want 1 (1-byte payload rendezvous, empty payload eager)", got)
	}
}

// TestRendezvousDisabled covers a negative MPH_EAGER_THRESHOLD: rendezvous is
// off and even multi-megabyte payloads ship on the eager path, byte-identical
// to the rendezvous result.
func TestRendezvousDisabled(t *testing.T) {
	t.Setenv(EnvEagerThreshold, "-1")
	_, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	exchange(t, c0, c1, 0, payload)

	nc := &envs[0].Perf().Net
	if got := nc.RTSOut.Load(); got != 0 {
		t.Errorf("RTSOut = %d, want 0 with rendezvous disabled", got)
	}
	if got := nc.FramesOut.Load(); got == 0 {
		t.Error("no packet frames counted for the eager large send")
	}
}

// TestFramePoolDropsOversized is the white-box guard for the pool-pinning
// fix: a frame buffer that grew beyond the configured cap must shed its
// backing array on Put, while threshold-sized buffers keep theirs.
func TestFramePoolDropsOversized(t *testing.T) {
	limit := defaultConfig().maxPooledFrame
	big := &frameBuf{b: make([]byte, limit+1)}
	putFrame(big, limit)
	if big.b != nil {
		t.Errorf("oversized buffer (cap %d) survived putFrame", limit+1)
	}
	small := &frameBuf{b: make([]byte, 512)}
	putFrame(small, limit)
	if small.b == nil {
		t.Error("threshold-sized buffer was dropped by putFrame")
	}
}

// TestPooledFrameCap pins the cap derivation: the cap tracks the resolved
// eager threshold (a job that raises MPH_EAGER_THRESHOLD must keep pooling
// its eager frames — the cap used to be pinned to the default, dropping
// every frame above 64 KiB), keeps the default-sized cap for the forced (0)
// and disabled (negative) cases, and respects the ceiling.
func TestPooledFrameCap(t *testing.T) {
	const hdr = 4 + 1 + packetHdrLen
	cases := []struct{ threshold, want int }{
		{DefaultEagerThreshold, DefaultEagerThreshold + hdr},
		{256 << 10, 256<<10 + hdr},
		{0, DefaultEagerThreshold + hdr},
		{-1, DefaultEagerThreshold + hdr},
		{1 << 30, maxPooledFrameCeiling + hdr},
	}
	for _, c := range cases {
		if got := pooledFrameCap(c.threshold); got != c.want {
			t.Errorf("pooledFrameCap(%d) = %d, want %d", c.threshold, got, c.want)
		}
	}
	t.Setenv(EnvEagerThreshold, fmt.Sprint(256<<10))
	if got := configFromEnv().maxPooledFrame; got != 256<<10+hdr {
		t.Errorf("configFromEnv resolved maxPooledFrame = %d, want %d", got, 256<<10+hdr)
	}
}

// TestEagerAllocBudgetRaisedThreshold is the allocation-regression guard for
// the frame-pool cap fix at a raised MPH_EAGER_THRESHOLD: a 256 KiB eager
// send must reuse its pooled frame, leaving roughly two payload-sized
// allocations per message (the send layer's defensive copy plus the
// receiver's buffer). Before the fix the cap stayed at the 64 KiB default,
// every eager frame above it missed the pool, and the same transfer paid a
// third payload-sized allocation per send.
func TestEagerAllocBudgetRaisedThreshold(t *testing.T) {
	const threshold = 512 << 10
	const size = 256 << 10
	const iters = 8

	t.Setenv(EnvEagerThreshold, fmt.Sprint(threshold))
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	if got := trs[0].cfg.maxPooledFrame; got < size {
		t.Fatalf("maxPooledFrame = %d, below the %d-byte eager payload this test sends", got, size)
	}
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	payload := bytes.Repeat([]byte{0x3C}, size)

	exchange(t, c0, c1, 9, payload) // warm pools and connections
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		exchange(t, c0, c1, 9, payload)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / iters
	t.Logf("per-message alloc at raised threshold: %.2f payloads", per/size)
	// Under -race sync.Pool deliberately drops a share of Puts (to shake out
	// code that depends on reuse), so the frame pool misses at random and the
	// budget fails at the same rate at every commit. The transfer still runs
	// and the figure is logged; only the assertion is a non-race one.
	if per > 2.5*size && !raceEnabled {
		t.Errorf("eager send at raised threshold allocates %.2f payloads per message, want <= 2.5 (frame pool cap not tracking MPH_EAGER_THRESHOLD?)", per/size)
	}
}

// TestChaosSeverBetweenRTSAndCTS kills the receiver in the rendezvous
// protocol's most dangerous window: after the sender's RTS is out but before
// any CTS exists (the receiver never posts a matching receive). The blocked
// sender must surface ErrPeerLost within the failure-detector budget — a
// rendezvous send never hangs on a dead receiver.
func TestChaosSeverBetweenRTSAndCTS(t *testing.T) {
	t.Setenv(EnvHeartbeat, "100ms")
	t.Setenv(EnvPeerTimeout, "500ms")
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")

	const n, victim = 2, 1
	trs, envs := startWorld(t, n)
	defer envs[0].Close() // the victim's env is deliberately never closed

	c0 := mpi.WorldComm(envs[0])
	c1 := mpi.WorldComm(envs[victim])

	// The victim first sends one small eager message, giving the sender's
	// failure detector an inbound stream whose silence it can detect.
	go c1.Send(0, 1, []byte("hello"))
	if _, _, err := c0.Recv(victim, 1); err != nil {
		t.Fatal(err)
	}

	sendErr := make(chan error, 1)
	go func() {
		sendErr <- c0.Send(victim, 2, make([]byte, 1<<20))
	}()

	// Wait until the RTS reached the victim, so the sever lands squarely
	// between RTS and the CTS that will never come.
	deadline := time.Now().Add(5 * time.Second)
	for envs[victim].Perf().Net.RTSIn.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("RTS never reached the victim")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trs[victim].severAll()

	select {
	case err := <-sendErr:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != victim {
			t.Fatalf("rendezvous send returned %v, want ErrPeerLost{Rank: %d}", err, victim)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rendezvous sender hung waiting for a dead receiver's CTS")
	}
}

// TestRendezvousSendAllocBudget is the allocation-regression guard for the
// zero-copy send path: a rendezvous transfer must allocate roughly one
// payload (the receiver's buffer) per message, where the eager path pays the
// sender-side defensive copy and frame encode on top. 1.6 payloads of slack
// absorbs runtime noise while still failing if either sender copy returns.
func TestRendezvousSendAllocBudget(t *testing.T) {
	const size = 4 << 20
	const iters = 4

	measure := func(threshold string) float64 {
		t.Setenv(EnvEagerThreshold, threshold)
		_, envs := startWorld(t, 2)
		defer envs[0].Close()
		defer envs[1].Close()
		c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
		payload := bytes.Repeat([]byte{0xA5}, size)

		exchange(t, c0, c1, 7, payload) // warm pools and connections
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			exchange(t, c0, c1, 7, payload)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / iters
	}

	rdv := measure("1024") // 4 MiB payloads go rendezvous
	eager := measure("-1") // rendezvous disabled: same payloads go eager
	t.Logf("per-message alloc: rendezvous %.2f payloads, eager %.2f payloads",
		rdv/size, eager/size)
	if rdv > 1.6*size {
		t.Errorf("rendezvous transfer allocates %.2f payloads per message, want <= 1.6 (payload-sized copy crept back into the send path?)", rdv/size)
	}
	if eager < rdv {
		t.Errorf("eager path (%.2f payloads) allocates less than rendezvous (%.2f): measurement is broken", eager/size, rdv/size)
	}
}

// benchPair times b.N runs of body on each of two in-process TCP ranks
// (goroutines standing in for OS processes; the wire path is the same one).
func benchPair(b *testing.B, size int, body func(c *mpi.Comm, payload []byte) error) {
	_, envs := startWorld(b, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	payload := make([]byte, size)
	loop := func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			if err := body(c, payload); err != nil {
				return err
			}
		}
		return nil
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan error, 1)
	go func() { done <- loop(mpi.WorldComm(envs[1])) }()
	if err := loop(mpi.WorldComm(envs[0])); err != nil {
		b.Fatal(err) // the deferred Closes release rank 1
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// BenchmarkSend (EXPERIMENTS.md P2) times one-directional sends in the three
// transport cells: eager (MPH_EAGER_THRESHOLD=-1), rendezvous with the
// payload on loopback TCP (threshold 0, MPH_SHM=off) and rendezvous with it
// on the intra-host channel (threshold 0, MPH_SHM on: the pair shares a
// hostname, as ranks of a one-host placement do). The sizes bracket the
// 64 KiB default threshold and the channel's ~256 KiB crossover. check.sh
// runs the 1 MiB rendezvous cells with -benchmem as the alloc-regression
// guard: B/op must stay near one payload (the receiver's buffer) — the
// sender side of a rendezvous transfer allocates nothing payload-sized.
func BenchmarkSend(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		for _, cell := range []struct{ name, threshold, shm string }{
			{"eager", "-1", "off"},
			{"rendezvous-tcp", "0", "off"},
			{"rendezvous-shm", "0", "1"},
		} {
			b.Run(fmt.Sprintf("%dB/%s", size, cell.name), func(b *testing.B) {
				b.Setenv(EnvEagerThreshold, cell.threshold)
				b.Setenv(EnvShm, cell.shm)
				benchPair(b, size, func(c *mpi.Comm, payload []byte) error {
					if c.Rank() == 0 {
						return c.Send(1, 4, payload)
					}
					_, _, err := c.Recv(0, 4)
					return err
				})
			})
		}
	}
}

// BenchmarkPingPong (EXPERIMENTS.md E10) is a round trip over the
// multi-process transport at its defaults, for comparison with the
// in-process round trip of internal/core's BenchmarkIntercompPingPong (E5).
func BenchmarkPingPong(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			benchPair(b, size, func(c *mpi.Comm, payload []byte) error {
				if c.Rank() == 0 {
					if err := c.Send(1, 1, payload); err != nil {
						return err
					}
					_, _, err := c.Recv(1, 2)
					return err
				}
				data, _, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				return c.Send(0, 2, data)
			})
		})
	}
}
