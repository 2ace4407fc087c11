package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mph/internal/mpi"
	"mph/internal/sock"
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
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, threshold)
	defer envs[0].Close()
	defer envs[1].Close()

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

// TestRendezvousForced covers a zero threshold, the seam BenchmarkSend's
// rendezvous cells use: every non-empty payload takes the rendezvous path,
// however small; empty payloads stay eager (there is no payload to avoid
// copying).
func TestRendezvousForced(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 0)
	defer envs[0].Close()
	defer envs[1].Close()

	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	exchange(t, c0, c1, 0, []byte("x"))
	exchange(t, c0, c1, 1, []byte{})

	if got := envs[0].Perf().Net.RTSOut.Load(); got != 1 {
		t.Errorf("RTSOut = %d, want 1 (1-byte payload rendezvous, empty payload eager)", got)
	}
}

// TestFramePoolDropsOversized is the white-box guard for the pool-pinning
// fix: a frame buffer that grew beyond the configured cap must shed its
// backing array on put, while threshold-sized buffers keep theirs — and the
// list itself holds no more than frameListDepth buffers.
func TestFramePoolDropsOversized(t *testing.T) {
	const limit = maxPooledFrame
	fl := &frameList{}
	big := &frameBuf{b: make([]byte, limit+1)}
	fl.put(big)
	if big.b != nil {
		t.Errorf("oversized buffer (cap %d) survived put", limit+1)
	}
	small := &frameBuf{b: make([]byte, 512)}
	fl.put(small)
	if small.b == nil {
		t.Error("threshold-sized buffer was dropped by put")
	}
	if got := fl.get(); got != small {
		t.Error("get did not return the buffer put last")
	}
	for i := 0; i < 2*frameListDepth; i++ {
		fl.put(new(frameBuf))
	}
	if fl.n != frameListDepth {
		t.Errorf("free list holds %d buffers, bound %d", fl.n, frameListDepth)
	}
}

// eagerAllocPerMessage sends size-byte payloads between two ranks whose
// eager/rendezvous switch sits at threshold, checks that they went eager,
// and returns the bytes allocated per message once pools and connections
// are warm.
func eagerAllocPerMessage(t *testing.T, threshold, size int) float64 {
	t.Helper()
	const iters = 8

	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	setEagerThreshold(trs, threshold)
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
	if got := envs[0].Perf().Net.RTSOut.Load(); got != 0 {
		t.Errorf("RTSOut = %d, want 0: the payload must go eager", got)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / iters
}

// TestPooledFrameCap is the allocation-regression guard for the frame-pool
// cap: the largest eager payload, one byte under DefaultEagerThreshold, must
// reuse its pooled frame, leaving one payload-sized allocation per message
// (the receiver's buffer; the send layer lends the transport the caller's
// slice). A cap below the largest eager frame would make every such send
// pay another payload-sized allocation.
func TestPooledFrameCap(t *testing.T) {
	const size = DefaultEagerThreshold - 1
	per := eagerAllocPerMessage(t, DefaultEagerThreshold, size)
	t.Logf("per-message alloc of the largest eager payload: %.2f payloads", per/size)
	if per > 1.5*size {
		t.Errorf("largest eager send allocates %.2f payloads per message, want <= 1.5 (maxPooledFrame below the largest eager frame?)", per/size)
	}
}

// TestEagerAllocBudgetRaisedThreshold is the same guard with the switch
// raised above the default: a payload of exactly DefaultEagerThreshold bytes
// now goes eager, and its frame, payload plus wire and packet headers, is
// the largest maxPooledFrame admits. It must still reuse its pooled frame;
// a cap that counted the payload without its headers would drop that frame
// on every put and double the allocation per send.
func TestEagerAllocBudgetRaisedThreshold(t *testing.T) {
	const size = DefaultEagerThreshold
	per := eagerAllocPerMessage(t, 2*DefaultEagerThreshold, size)
	t.Logf("per-message alloc at raised threshold: %.2f payloads", per/size)
	if per > 1.5*size {
		t.Errorf("eager send at raised threshold allocates %.2f payloads per message, want <= 1.5 (maxPooledFrame below a %d-byte eager frame?)", per/size, size)
	}
}

// TestChaosSeverBetweenRTSAndCTS kills the receiver in the rendezvous
// protocol's most dangerous window: after the sender's RTS is out but before
// any CTS exists (the receiver never posts a matching receive). The blocked
// sender must surface ErrPeerLost once the victim's session ends — a
// rendezvous send never hangs on a dead receiver.
func TestChaosSeverBetweenRTSAndCTS(t *testing.T) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")

	const n, victim = 2, 1
	trs, envs := startWorld(t, n)
	defer envs[0].Close() // the victim's env is deliberately never closed

	c0 := mpi.WorldComm(envs[0])
	c1 := mpi.WorldComm(envs[victim])

	// The victim first sends one small eager message, so it has a stream of
	// its own to lose.
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

// TestChaosLateRTSFromDeadPeer: an RTS that a dead rank's stream delivers
// after the launcher's down line — its bytes were still in flight — is
// refused and ends the stream. Posted, its placeholder would have escaped the
// failure sweep that already ran: a receive naming the rank would match it
// ahead of the peer-loss verdict, and wait for a payload nobody sends.
func TestChaosLateRTSFromDeadPeer(t *testing.T) {
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	setEagerThreshold(trs, 1024)
	c0 := mpi.WorldComm(envs[0])

	conn := rawPeer(t, trs[0]) // rank 1's stream, still open when it dies
	defer conn.Close()
	trs[1].severAll()
	nc := &envs[0].Perf().Net
	for deadline := time.Now().Add(10 * time.Second); nc.PeersLost.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("rank 1 was never declared dead")
		}
	}
	conn.Write(wireOf(kindRTS, []uint64{1, c0.Context(), 1, 9, 1, 64 << 10}, ""))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the dead rank's stream stayed open after a late RTS: %v", err)
	}
	if depth := envs[0].Perf().Snapshot().Engine.UMQDepth; depth != 0 {
		t.Fatalf("a late RTS posted a placeholder: %d unexpected messages", depth)
	}
	done := make(chan error, 1)
	go func() { _, _, err := c0.Recv(1, 9); done <- err }()
	select {
	case err := <-done:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != 1 {
			t.Fatalf("receive from the dead rank = %v, want ErrPeerLost{Rank: 1}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a receive from the dead rank hung on its late RTS")
	}
}

// TestRendezvousSendAllocBudget is the allocation-regression guard for the
// zero-copy send path: a rendezvous transfer must allocate roughly one
// payload (the receiver's buffer) per message, where the eager path pays an
// unpooled 4 MiB frame on top. 1.6 payloads of slack
// absorbs runtime noise while still failing if either sender copy returns.
func TestRendezvousSendAllocBudget(t *testing.T) {
	const size = 4 << 20
	const iters = 4

	measure := func(threshold int) float64 {
		trs, envs := startWorld(t, 2)
		setEagerThreshold(trs, threshold)
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

	rdv := measure(1024)          // 4 MiB payloads go rendezvous
	eager := measure(math.MaxInt) // same payloads go eager
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
// setup, when given, adjusts the pair before the first send.
func benchPair(b *testing.B, size int, setup func(trs []*Transport, envs []*mpi.Env), body func(c *mpi.Comm, payload []byte) error) {
	trs, envs := startWorld(b, 2)
	if setup != nil {
		setup(trs, envs)
	}
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
// transport cells: eager (threshold math.MaxInt), rendezvous with the
// payload on loopback TCP (threshold 0, the ranks on different host labels)
// and rendezvous with it on the intra-host channel (threshold 0, the pair
// sharing a hostname, as ranks of a one-host placement do). The sizes bracket the
// 64 KiB default threshold and the channel's ~256 KiB crossover. check.sh
// runs the 1 MiB rendezvous cells with -benchmem as the alloc-regression
// guard: B/op must stay near one payload (the receiver's buffer) — the
// sender side of a rendezvous transfer allocates nothing payload-sized.
func BenchmarkSend(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		for _, cell := range []struct {
			name      string
			threshold int
			shm       bool
		}{
			{"eager", math.MaxInt, false},
			{"rendezvous-tcp", 0, false},
			{"rendezvous-shm", 0, true},
		} {
			b.Run(fmt.Sprintf("%dB/%s", size, cell.name), func(b *testing.B) {
				setup := func(trs []*Transport, envs []*mpi.Env) {
					setEagerThreshold(trs, cell.threshold)
					if !cell.shm {
						splitHosts(envs)
					}
				}
				benchPair(b, size, setup, func(c *mpi.Comm, payload []byte) error {
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
			benchPair(b, size, nil, func(c *mpi.Comm, payload []byte) error {
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

// BenchmarkSocketPingPong is BenchmarkPingPong's floor: the same sizes over
// the same loopback, one goroutine a side, but the payload written and read
// straight on a pair of sock.Conns, with no frame, engine or match. The
// transport's round trip is stated as a ratio to this one (EXPERIMENTS.md
// S20).
func BenchmarkSocketPingPong(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			ln, err := sock.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			dialed, err := sock.Dial("tcp", ln.Addr(), 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer dialed.Close()
			accepted, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			defer accepted.Close()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			done := make(chan error, 1)
			go func() { // the echo side: read one payload, send it back
				buf := make([]byte, size)
				var err error
				for i := 0; i < b.N && err == nil; i++ {
					if _, err = io.ReadFull(accepted, buf); err == nil {
						_, err = accepted.Write(buf)
					}
				}
				done <- err
			}()
			buf := make([]byte, size)
			for i := 0; i < b.N; i++ {
				if _, err := dialed.Write(buf); err != nil {
					b.Fatal(err) // the deferred Closes release the echo side
				}
				if _, err := io.ReadFull(dialed, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkAllreduce (EXPERIMENTS.md S6) is the cell behind the selector's
// two-rank row: AllreduceFloats on two ranks over TCP at the payloads the
// coupled period issues (1, 2 and 9 values) — one exchange — against the
// reduce-then-broadcast it replaced, spelled as that tree's two messages:
// rank 1's operand to rank 0, rank 0's sum back. check.sh holds the 8-byte
// pair cell to 32 B/op, both ranks together.
func BenchmarkAllreduce(b *testing.B) {
	for _, floats := range []int{1, 2, 9} {
		xs := make([]float64, floats)
		b.Run(fmt.Sprintf("2ranks/%dB/pair", 8*floats), func(b *testing.B) {
			operands := [2][]float64{make([]float64, floats), make([]float64, floats)} // the results land in them
			benchPair(b, 8*floats, nil, func(c *mpi.Comm, _ []byte) error {
				_, err := c.AllreduceFloats(operands[c.Rank()], mpi.OpSum)
				return err
			})
		})
		b.Run(fmt.Sprintf("2ranks/%dB/reduce+bcast", 8*floats), func(b *testing.B) {
			acc := [2][]float64{make([]float64, floats), make([]float64, floats)}
			benchPair(b, 8*floats, nil, func(c *mpi.Comm, _ []byte) error {
				in := acc[c.Rank()]
				if c.Rank() == 1 {
					if err := c.SendFloats(0, 5, xs); err != nil {
						return err
					}
					_, err := c.RecvFloatsInto(0, 6, in)
					return err
				}
				if _, err := c.RecvFloatsInto(1, 5, in); err != nil {
					return err
				}
				for i := range in {
					in[i] += xs[i]
				}
				return c.SendFloats(1, 6, in)
			})
		})
	}
}

// exchangeFloats is exchange for the copy-free pair: SendFloats from rank 0,
// RecvFloatsInto the caller's slice on rank 1.
func exchangeFloats(t testing.TB, sender, receiver *mpi.Comm, tag int, xs, into []float64) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := receiver.RecvFloatsInto(0, tag, into)
		done <- err
	}()
	if err := sender.SendFloats(1, tag, xs); err != nil {
		t.Fatalf("send %d floats: %v", len(xs), err)
	}
	if err := <-done; err != nil {
		t.Fatalf("recv %d floats: %v", len(xs), err)
	}
}

// TestRecvIntoRendezvousAllocBudget is the allocation guard of the receive
// half of the copy problem (DESIGN.md §12): a rendezvous-sized SendFloats /
// RecvFloatsInto pair moves the sender's slice to the receiver's through
// writev and one read into place, so neither carrier may allocate anything
// payload-sized — where TestRendezvousSendAllocBudget's plain Recv pays the
// receiver's buffer. Nor may an eager pair: no encode, no defensive copy (the
// frame is pooled), no decode, and the payload is read into a recycled buffer
// (TestEagerRecvIntoAllocBudget holds the small-message path to bytes).
func TestRecvIntoRendezvousAllocBudget(t *testing.T) {
	// measure returns the allocations per message, in payloads, and how many
	// payloads the intra-host channel carried.
	measure := func(threshold int, shm bool, floats, iters int) (float64, uint64) {
		trs, envs := startWorld(t, 2)
		setEagerThreshold(trs, threshold)
		if !shm {
			splitHosts(envs)
		}
		defer envs[0].Close()
		defer envs[1].Close()
		c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
		xs, into := make([]float64, floats), make([]float64, floats)
		for i := range xs {
			xs[i] = float64(i) * 0.5
		}
		exchangeFloats(t, c0, c1, 7, xs, into) // warm pools and connections
		if into[floats-1] != xs[floats-1] || into[1] != xs[1] {
			t.Fatalf("floats corrupted in transit: got %v … %v", into[1], into[floats-1])
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			exchangeFloats(t, c0, c1, 7, xs, into)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / float64(iters) / float64(8*floats)
		return per, envs[0].Perf().Net.ShmRDataOut.Load()
	}

	const big, iters = 4 << 20 / 8, 4
	for _, cell := range []struct {
		name string
		shm  bool
	}{{"tcp", false}, {"shm", true}} {
		per, viaShm := measure(1024, cell.shm, big, iters)
		t.Logf("rendezvous over %s: %.4f payloads allocated per message", cell.name, per)
		if per >= 0.1 {
			t.Errorf("rendezvous SendFloats/RecvFloatsInto over %s allocates %.2f payloads per message, want < 0.1 (a payload-sized buffer or copy crept back)", cell.name, per)
		}
		want := uint64(0)
		if cell.shm {
			want = iters + 1 // the warm-up too
		}
		if viaShm != want {
			t.Errorf("%s cell: the intra-host channel carried %d payloads, want %d", cell.name, viaShm, want)
		}
	}
	per, _ := measure(DefaultEagerThreshold, false, 48<<10/8, 16) // 48 KiB goes eager
	t.Logf("eager: %.4f payloads allocated per message", per)
	if per >= 0.25 {
		t.Errorf("eager SendFloats/RecvFloatsInto allocates %.2f payloads per message, want < 0.25 (a per-message buffer or copy crept back)", per)
	}
}

// rawPeer opens a raw stream to rank 0's listener that introduces itself as
// rank 1, for the tests that need a peer to misbehave at an exact byte.
func rawPeer(t *testing.T, tr *Transport) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", tr.ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(helloFrame(1, "")); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestChaosRecvIntoPeerLostMidPayload kills a sender half way through a
// rendezvous payload that is being read straight into the application's
// slab: the stream carrying it breaks, and the sender's session ends. The
// receive must end in ErrPeerLost — never hang, and never return while the
// stream could still write.
func TestChaosRecvIntoPeerLostMidPayload(t *testing.T) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	defer envs[0].Close()
	defer envs[1].Close()
	c0 := mpi.WorldComm(envs[0])

	const n, id = 64 << 10, 77
	slab := make([]byte, n)
	var req mpi.Request
	c0.StartRecvInto(&req, 1, 5, slab)

	conn := rawPeer(t, trs[0])
	defer conn.Close()
	conn.Write(wireOf(kindRTS, []uint64{1, c0.Context(), 1, 5, id, n}, ""))
	rdata := wireOf(kindRData, []uint64{1, id}, "")
	binary.LittleEndian.PutUint32(rdata, uint32(1+16+n)) // the frame promises all n bytes
	conn.Write(rdata)
	conn.Write(bytes.Repeat([]byte{0xAB}, n/2))
	conn.Close() // the sender dies with half the payload on the wire
	trs[1].severAll()

	done := make(chan error, 1)
	go func() { _, _, err := req.Wait(); done <- err }()
	select {
	case err := <-done:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != 1 {
			t.Fatalf("Wait = %v, want ErrPeerLost{Rank: 1}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a receive into place hung on a sender that died mid-payload")
	}
}

// TestRecvIntoReplayedRData replays a rendezvous payload after the transfer
// completed — what a redial does with a frame that was flushed onto a dying
// connection — both after the transport forgot the transfer and in the window
// before it has. Either copy must be drained off the stream without touching
// the slab the application got back, and the stream must stay usable.
func TestRecvIntoReplayedRData(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])

	payload := bytes.Repeat([]byte{0x11}, 8<<10)
	sent := make(chan error, 1)
	go func() { sent <- c1.Send(0, 3, payload) }()
	nc := &envs[0].Perf().Net
	for deadline := time.Now().Add(5 * time.Second); nc.RTSIn.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("RTS never arrived")
		}
	}
	trs[0].waitMu.Lock()
	var key rdvKey
	var placeholder *mpi.Packet
	for key, placeholder = range trs[0].rdvIn {
	}
	if placeholder != nil {
		placeholder.Rdv.Hold() // the test's: the record must outlive the transfer
	}
	trs[0].waitMu.Unlock()
	if placeholder == nil {
		t.Fatal("no inbound rendezvous registered after the RTS")
	}
	slab := make([]byte, len(payload))
	if err := recvInto(c0, 1, 3, slab); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	conn := rawPeer(t, trs[0])
	defer conn.Close()
	replay := wireOf(kindRData, []uint64{1, key.id}, string(bytes.Repeat([]byte{0xFF}, len(payload))))
	for _, window := range []string{"forgotten", "finished, not yet forgotten"} {
		if window != "forgotten" {
			trs[0].waitMu.Lock()
			trs[0].rdvIn[key] = placeholder
			placeholder.Rdv.Hold() // the entry's
			trs[0].waitMu.Unlock()
		}
		frames := nc.FramesIn.Load()
		conn.Write(replay)
		for deadline := time.Now().Add(5 * time.Second); nc.FramesIn.Load() == frames; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the replayed frame was never consumed", window)
			}
		}
		if !bytes.Equal(slab, payload) {
			t.Fatalf("%s: the replayed payload reached the slab the application got back", window)
		}
	}
	if got := nc.RDataIn.Load(); got != 1 {
		t.Errorf("RDataIn = %d, want 1: a replay was counted as a delivery", got)
	}
}

// TestRecvIntoTruncatedKeepsStreamFramed: a receive whose buffer has the
// wrong length gets *mpi.ErrTruncated, and because the payload was still read
// off the wire in full, the very next message on the same connection arrives
// intact on both protocols.
func TestRecvIntoTruncatedKeepsStreamFramed(t *testing.T) {
	trs, envs := startWorld(t, 2)
	setEagerThreshold(trs, 1024)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	for _, size := range []int{512, 16 << 10} { // eager, rendezvous
		payload := bytes.Repeat([]byte{0x77}, size)
		sent := make(chan error, 1)
		go func() {
			err := c0.Send(1, 2, payload)
			if err == nil {
				err = c0.Send(1, 2, payload)
			}
			sent <- err
		}()
		var trunc *mpi.ErrTruncated
		if err := recvInto(c1, 0, 2, make([]byte, size-8)); !errors.As(err, &trunc) || trunc.Arrived != size {
			t.Fatalf("%d-byte message into %d: %v, want ErrTruncated", size, size-8, err)
		}
		into := make([]byte, size)
		if err := recvInto(c1, 0, 2, into); err != nil || !bytes.Equal(into, payload) {
			t.Fatalf("%d-byte message after a truncation: %v", size, err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRendezvousLifetime sends checksummed rendezvous payloads to rank 0 from
// ranks 1 and 2 at once, received alternately into place and by a plain
// Recv, while the job ends under them: rank 1 dies with one of its payloads
// half read into a receive's buffer, and rank 2 runs on; rank 0 aborts the
// job; or rank 0 closes. Every receive ends in an intact payload or the
// failure's typed error, and every buffer a receive returned, or was given to
// fill, holds once everything has stopped what it held when the receive
// returned. Placeholder records recycle throughout, so one given back before
// its last holder let go shows here: as a panic where a failure sweep, a
// stream or a receive reaches it on the free list (Rendezvous.Fail, Hold and
// Release refuse a recycled record), as a race under -race, as a survivor's
// receive failing with another rank's error, or as a buffer rewritten after
// its receive returned.
func TestRendezvousLifetime(t *testing.T) {
	for _, end := range []string{"peer dies", "abort", "close"} {
		for _, carrier := range []string{"tcp", "shm"} {
			t.Run(end+"/"+carrier, func(t *testing.T) { rendezvousLifetime(t, end, carrier == "tcp") })
		}
	}
}

func rendezvousLifetime(t *testing.T, end string, split bool) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	trs, envs := startWorld(t, 3)
	setEagerThreshold(trs, 1024)
	if split {
		splitHosts(envs)
	}
	c0 := mpi.WorldComm(envs[0])
	const perSender, midway, tag = 300, 40, 5
	size := func(seq int) int { return 16<<10 + seq%5*(24<<10) } // 16–112 KiB
	stampSeq := func(buf []byte, src, seq int) {
		binary.LittleEndian.PutUint32(buf, uint32(seq))
		stamp(buf[4:], src<<16|seq)
	}

	type kept struct {
		data []byte
		sum  uint32
	}
	var mu sync.Mutex
	var held []kept
	keep := func(data []byte) {
		mu.Lock()
		held = append(held, kept{data, crc32.ChecksumIEEE(data)})
		mu.Unlock()
	}
	// ended reports whether err is the typed error this end gives a receive
	// from src.
	ended := func(err error, src int) bool {
		switch end {
		case "peer dies":
			rank, lost := mpi.IsPeerLost(err)
			return lost && rank == 1 && src == 1
		case "abort":
			return errors.Is(err, mpi.ErrAborted)
		default:
			return errors.Is(err, mpi.ErrClosed)
		}
	}

	var received atomic.Int64
	var senders, receivers sync.WaitGroup
	counts := make([]int, 3)
	for src := 1; src <= 2; src++ {
		c := mpi.WorldComm(envs[src])
		senders.Add(1)
		go func() {
			defer senders.Done()
			out := make([]byte, size(4))
			for seq := 0; seq < perSender; seq++ {
				stampSeq(out[:size(seq)], src, seq)
				if c.Send(0, tag, out[:size(seq)]) != nil {
					return // the end reached the sender
				}
			}
		}()
		receivers.Add(1)
		go func() {
			defer receivers.Done()
			var req mpi.Request
			want := make([]byte, size(4))
			for seq := 0; seq < perSender; seq++ {
				var data []byte
				var err error
				if seq%2 == 0 {
					data, _, err = c0.Recv(src, tag)
				} else {
					data = make([]byte, size(seq))
					c0.StartRecvInto(&req, src, tag, data)
					_, _, err = req.Wait()
					keep(data) // the receive's buffer is the caller's again, whatever the outcome
				}
				if err != nil {
					if !ended(err, src) {
						t.Errorf("receive %d from rank %d: %v", seq, src, err)
					}
					return
				}
				stampSeq(want[:size(seq)], src, seq)
				if !bytes.Equal(data, want[:size(seq)]) {
					t.Errorf("receive %d from rank %d: payload corrupted (seq %d arrived)", seq, src, binary.LittleEndian.Uint32(data))
					return
				}
				keep(data)
				counts[src]++
				received.Add(1)
			}
		}()
	}

	for deadline := time.Now().Add(10 * time.Second); received.Load() < midway; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d payloads arrived before the end", received.Load(), midway)
		}
	}
	switch end {
	case "peer dies":
		// Two of rank 1's payloads are half read when its session ends — one
		// into a buffer of its own for a plain Recv, one into a receive's
		// slab — and the rest of both arrives after the failure sweep.
		const n = 64 << 10
		slab := make([]byte, n)
		var req mpi.Request
		c0.StartRecvInto(&req, 1, tag+1, slab)
		plain := make(chan error, 1)
		go func() {
			data, _, err := c0.Recv(1, tag+2)
			if err == nil {
				keep(data)
			}
			plain <- err
		}()
		nc := &envs[0].Perf().Net
		cts := nc.CTSOut.Load()
		var halves [2]net.Conn
		for i := range halves {
			id := uint64(1<<40 + i)
			halves[i] = rawPeer(t, trs[0])
			defer halves[i].Close()
			halves[i].Write(wireOf(kindRTS, []uint64{1, c0.Context(), 1, uint64(tag + 1 + i), id, n}, ""))
			rdata := wireOf(kindRData, []uint64{1, id}, "")
			binary.LittleEndian.PutUint32(rdata, uint32(1+16+n)) // the frame promises all n bytes
			halves[i].Write(append(rdata, bytes.Repeat([]byte{0xAB}, n/2)...))
		}
		for deadline := time.Now().Add(10 * time.Second); nc.CTSOut.Load() < cts+2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the two half-sent payloads were never matched")
			}
		}
		// Any interleaving must pass; the pause only lets both streams get
		// into their reads, where a record given back early would be caught.
		time.Sleep(10 * time.Millisecond)
		for r := range trs[1].peers {
			trs[1].peers[r].condemn(errors.New("test: rank 1 dies"))
		}
		trs[1].severAll()
		if err := <-plain; !ended(err, 1) {
			t.Errorf("plain Recv cut off mid-payload: %v, want ErrPeerLost{Rank: 1}", err)
		}
		for _, conn := range halves {
			conn.Write(bytes.Repeat([]byte{0xCD}, n/2))
		}
		if _, _, err := req.Wait(); !ended(err, 1) {
			t.Errorf("receive into place cut off mid-payload: %v, want ErrPeerLost{Rank: 1}", err)
		}
		keep(slab)
	case "abort":
		envs[0].Abort(7)
	case "close":
		envs[0].Close()
	}

	done := make(chan struct{})
	go func() { receivers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a receive hung after the job ended under it")
	}
	for _, env := range envs {
		env.Close()
	}
	senders.Wait()

	if end == "peer dies" && counts[2] != perSender {
		t.Errorf("the survivor's receives took %d of its %d payloads", counts[2], perSender)
	}
	for i, k := range held {
		if got := crc32.ChecksumIEEE(k.data); got != k.sum {
			t.Errorf("buffer %d changed after its receive returned: checksum %08x, want %08x", i, got, k.sum)
		}
	}
	t.Logf("%d payloads from rank 1 and %d from rank 2 arrived; %d buffers checked", counts[1], counts[2], len(held))
}
