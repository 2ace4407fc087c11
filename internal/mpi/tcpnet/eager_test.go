package tcpnet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"mph/internal/mpi"
)

// The eager receive path recycles: an inbound packet and the buffer its
// payload was read into come from the transport's mpi.PacketPool and go back
// when a receive has consumed them (DESIGN.md §12). The budget test keeps the
// per-message allocation from creeping back; the lifetime tests show that a
// buffer is never given back while something can still read it, and never
// reaches a caller.

// awaitFramesIn spins until env's transport has handed its n-th inbound
// frame to the engine — an eager packet counts once posted, so with no
// receive waiting it sits in the unexpected queue. The spin is atomic loads,
// so the budget test can use it.
func awaitFramesIn(t testing.TB, env *mpi.Env, n uint64) {
	t.Helper()
	nc := &env.Perf().Net
	for deadline := time.Now().Add(10 * time.Second); nc.FramesIn.Load() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("inbound frame %d never arrived (%d did)", n, nc.FramesIn.Load())
		}
	}
}

// recvInto is the blocking receive into a buffer: a receive posted on a
// request of its own, then waited on.
func recvInto(c *mpi.Comm, src, tag int, into []byte) error {
	var r mpi.Request
	c.StartRecvInto(&r, src, tag, into)
	_, _, err := r.Wait()
	return err
}

// TestEagerRecvIntoAllocBudget is the allocation guard of the small-message
// path: a 4 KiB SendFloats / receive-into pair over TCP, with the receive
// posted first (on a request the receiver keeps) and with the message
// arriving first, allocates nothing payload-sized and no record — the frame,
// the inbound packet with its buffer and the posted record are all reused.
// The parent of this test's commit paid 1.08 payloads a message.
func TestEagerRecvIntoAllocBudget(t *testing.T) {
	_, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	const floats, warm, iters = 4 << 10 / 8, 16, 256
	xs, into := make([]float64, floats), make([]float64, floats)
	for i := range xs {
		xs[i] = float64(i) * 0.25
	}
	var req mpi.Request
	cells := []struct {
		name string
		pair func()
	}{
		{"posted-first", func() {
			c1.StartRecvFloatsInto(&req, 0, 7, into)
			if err := c0.SendFloats(1, 7, xs); err != nil {
				t.Fatal(err)
			}
			if _, _, err := req.Wait(); err != nil {
				t.Fatal(err)
			}
		}},
		{"unexpected-first", func() {
			n := envs[1].Perf().Net.FramesIn.Load()
			if err := c0.SendFloats(1, 7, xs); err != nil {
				t.Fatal(err)
			}
			awaitFramesIn(t, envs[1], n+1)
			if _, err := c1.RecvFloatsInto(0, 7, into); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, cell := range cells {
		for i := 0; i < warm; i++ {
			cell.pair()
		}
		into[floats-1] = 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			cell.pair()
		}
		runtime.ReadMemStats(&after)
		if into[floats-1] != xs[floats-1] || into[1] != xs[1] {
			t.Fatalf("%s: floats corrupted in transit: got %v … %v", cell.name, into[1], into[floats-1])
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / iters
		t.Logf("%s: %.1f B allocated per message", cell.name, per)
		if per > 64 {
			t.Errorf("%s: eager SendFloats/receive-into allocates %.0f B a message, budget 64 (a per-message buffer or record crept back)", cell.name, per)
		}
	}
}

// BenchmarkEagerInto (EXPERIMENTS.md S6, the per-operation table) streams
// 4 KiB eager messages one way into the receiver's own buffer, through the
// three ways of receiving into place: the blocking call (the float view's),
// a fresh request a message, and one request posted again and again.
// BenchmarkSend's 4096B/eager cell is the same stream into a plain Recv.
func BenchmarkEagerInto(b *testing.B) {
	into, floats := make([]byte, 4<<10), make([]float64, 4<<10/8)
	var req mpi.Request
	for _, cell := range []struct {
		name string
		recv func(c *mpi.Comm) error
	}{
		{"RecvFloatsInto", func(c *mpi.Comm) error { _, err := c.RecvFloatsInto(0, 4, floats); return err }},
		{"fresh-request", func(c *mpi.Comm) error { return recvInto(c, 0, 4, into) }},
		{"StartRecvInto", func(c *mpi.Comm) error {
			c.StartRecvInto(&req, 0, 4, into)
			_, _, err := req.Wait()
			return err
		}},
	} {
		b.Run("4096B/"+cell.name, func(b *testing.B) {
			benchPair(b, len(into), nil, func(c *mpi.Comm, payload []byte) error {
				if c.Rank() == 0 {
					return c.Send(1, 4, payload)
				}
				return cell.recv(c)
			})
		})
	}
}

// stamp fills buf with a pattern derived from seq and returns its checksum.
func stamp(buf []byte, seq int) uint32 {
	for i := range buf {
		buf[i] = byte(seq*31 + i*7)
	}
	return crc32.ChecksumIEEE(buf)
}

// TestEagerLifetimeChecksums drives one envelope ten thousand times,
// alternating a receive into place posted first with a blocking Recv of a
// message sent first, and checks every payload against its checksum: a
// buffer recycled while a receive could still read it, or a record seen by
// two receives, shows as a corrupted field. Sizes vary so buffers are reused
// across sizes.
func TestEagerLifetimeChecksums(t *testing.T) {
	_, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	n := 10000
	if testing.Short() {
		n = 1000
	}
	out, into := make([]byte, 4096), make([]byte, 4096)
	var req mpi.Request
	for seq := 0; seq < n; seq++ {
		size := 8 << (seq % 10) // 8 B … 4 KiB
		want := stamp(out[:size], seq)
		data := into[:size]
		if seq%2 == 0 {
			c1.StartRecvInto(&req, 0, 3, data)
			if err := c0.Send(1, 3, out[:size]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := req.Wait(); err != nil {
				t.Fatal(err)
			}
		} else {
			in := envs[1].Perf().Net.FramesIn.Load()
			if err := c0.Send(1, 3, out[:size]); err != nil {
				t.Fatal(err)
			}
			// The sender's buffer is its own again: scribbling on it must not
			// reach the message already on its way.
			out[0] ^= 0xFF
			if seq%4 == 1 {
				awaitFramesIn(t, envs[1], in+1)
			}
			var err error
			if data, _, err = c1.Recv(0, 3); err != nil {
				t.Fatal(err)
			}
		}
		if got := crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("message %d (%d bytes): checksum %08x, want %08x", seq, size, got, want)
		}
	}
}

// TestEagerLifetimeRecvSlicesSurvive holds on to what Recv and two wildcard
// Recvs returned — each message already waiting in its recycled buffer —
// while a thousand later messages go through the same buffers: the slices
// are the caller's own and must not change.
func TestEagerLifetimeRecvSlicesSurvive(t *testing.T) {
	_, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	out := make([]byte, 1024)
	type kept struct {
		data []byte
		sum  uint32
	}
	var held []kept
	for seq := 0; seq < 3; seq++ {
		want := stamp(out, seq)
		in := envs[1].Perf().Net.FramesIn.Load()
		if err := c0.Send(1, 4, out); err != nil {
			t.Fatal(err)
		}
		awaitFramesIn(t, envs[1], in+1)
		src, tag := 0, 4
		switch seq {
		case 1:
			src = mpi.AnySource
		case 2:
			src, tag = mpi.AnySource, mpi.AnyTag
		}
		data, st, err := c1.Recv(src, tag)
		if err != nil || st.Len != len(out) {
			t.Fatalf("recv: %+v %v", st, err)
		}
		held = append(held, kept{data, want})
	}
	into := make([]byte, len(out))
	for seq := 3; seq < 1003; seq++ {
		stamp(out, seq)
		if err := c0.Send(1, 4, out); err != nil {
			t.Fatal(err)
		}
		if err := recvInto(c1, 0, 4, into); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range held {
		if got := crc32.ChecksumIEEE(k.data); got != k.sum {
			t.Errorf("slice %d changed after it was returned: checksum %08x, want %08x", i, got, k.sum)
		}
		if cap(k.data) != len(k.data) {
			t.Errorf("slice %d has capacity %d for %d bytes: not an exact-size slice of its own", i, cap(k.data), len(k.data))
		}
	}
}

// TestEagerLifetimeCancelRace re-arms one request over and over while the
// peer's eager messages race its Cancel. Whichever wins, each message is
// delivered exactly once and intact — to the request or to the receive that
// follows — and the request is fit to be posted again.
func TestEagerLifetimeCancelRace(t *testing.T) {
	_, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	const n, size = 2000, 512
	sent := make(chan error, 1)
	go func() {
		out := make([]byte, size)
		for seq := 0; seq < n; seq++ {
			binary.LittleEndian.PutUint32(out, uint32(seq))
			stamp(out[4:], seq)
			if err := c0.Send(1, 6, out); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	var req mpi.Request
	into, want := make([]byte, size), make([]byte, size)
	canceled := 0
	for seq := 0; seq < n; seq++ {
		c1.StartRecvInto(&req, 0, 6, into)
		if seq%3 == 0 {
			runtime.Gosched()
		}
		if req.Cancel() {
			canceled++
			if _, _, err := req.Wait(); err != mpi.ErrCanceled {
				t.Fatalf("message %d: canceled request's Wait = %v", seq, err)
			}
			if err := recvInto(c1, 0, 6, into); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := req.Wait(); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(want, uint32(seq))
		stamp(want[4:], seq)
		if !bytes.Equal(into, want) {
			t.Fatalf("message %d arrived out of order or corrupted (got seq %d)", seq, binary.LittleEndian.Uint32(into))
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d receives were canceled before their message arrived", canceled, n)
}

// TestEagerLifetimePeerLostQueued loses a peer that has eager messages
// queued and one half-read: the queued ones stay consumable, intact; the next
// receive naming the dead rank fails with ErrPeerLost; and the packet whose
// payload never fully arrived was dropped, not recycled — traffic from a
// surviving rank runs through the same free list unharmed.
func TestEagerLifetimePeerLostQueued(t *testing.T) {
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	trs, envs := startWorld(t, 3)
	for _, env := range envs {
		defer env.Close()
	}
	c0, c1, c2 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1]), mpi.WorldComm(envs[2])
	const queued, size = 8, 2048
	out := make([]byte, size)
	var sums [queued]uint32
	for seq := range sums {
		sums[seq] = stamp(out, seq)
		if err := c1.Send(0, 9, out); err != nil {
			t.Fatal(err)
		}
	}
	nc := &envs[0].Perf().Net
	for deadline := time.Now().Add(5 * time.Second); nc.FramesIn.Load() < queued; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the eager messages never arrived")
		}
	}
	// A second stream from "rank 1" dies half way through an eager payload.
	conn := rawPeer(t, trs[0])
	half := encode(nil, frame{kind: kindPacket, src: 1, ctx: c0.Context(), rank: 1, tag: 9}, size)
	conn.Write(append(half, bytes.Repeat([]byte{0xEE}, size/2)...))
	conn.Close()
	trs[1].severAll()

	into := make([]byte, size)
	for seq, want := range sums {
		if err := recvInto(c0, 1, 9, into); err != nil {
			t.Fatalf("queued message %d after the peer's death: %v", seq, err)
		}
		if got := crc32.ChecksumIEEE(into); got != want {
			t.Fatalf("queued message %d: checksum %08x, want %08x", seq, got, want)
		}
	}
	done := make(chan error, 1)
	go func() { done <- recvInto(c0, 1, 9, into) }()
	select {
	case err := <-done:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != 1 {
			t.Fatalf("receive from the dead rank = %v, want ErrPeerLost{Rank: 1}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receive from the dead rank hung")
	}
	if depth := envs[0].Perf().Snapshot().Engine.UMQDepth; depth != 0 {
		t.Errorf("unexpected queue holds %d messages after the drain", depth)
	}
	for seq := 0; seq < 200; seq++ {
		want := stamp(out, 1000+seq)
		if err := c2.Send(0, 9, out); err != nil {
			t.Fatal(err)
		}
		if err := recvInto(c0, 2, 9, into); err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(into); got != want {
			t.Fatalf("survivor's message %d: checksum %08x, want %08x", seq, got, want)
		}
	}
}
