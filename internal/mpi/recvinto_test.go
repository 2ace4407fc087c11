package mpi

// White-box tests of the receive with a destination (StartRecvInto and the
// blocking recvInto):
// how the engine hands the caller's buffer to a rendezvous placeholder on
// either match path, what a transport's ReceiveRendezvous does with it, and
// what the eager and in-process paths do instead. The placeholders are built
// by hand, as tcpnet builds them from an RTS frame.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"
	"unsafe"
)

// soloComm returns the world communicator of a one-rank world: every packet
// the tests post by hand is "from" rank 0 to rank 0.
func soloComm(t *testing.T) *Comm {
	t.Helper()
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	c, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// placeholder posts what an RTS of n bytes on (c, tag) posts.
func placeholder(t *testing.T, c *Comm, tag, n int) *Packet {
	t.Helper()
	p := &Packet{Ctx: c.ctx, Src: 0, SrcWorld: 0, Tag: tag, Rdv: NewRendezvous(n)}
	if err := c.env.Post(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// startInto posts a receive into dst on a fresh request.
func startInto(c *Comm, src, tag int, dst []byte) *Request {
	r := new(Request)
	c.StartRecvInto(r, src, tag, dst)
	return r
}

// done reports, without blocking, whether r's receive is over: completed
// inline, or completed by the engine with any rendezvous payload landed (or
// failed). It looks at what Wait would, and puts the token back.
func done(r *Request) bool {
	if !r.latched {
		return true
	}
	select {
	case <-r.rec.ready:
	default:
		return false
	}
	m := r.rec.pkt
	over := r.settled || r.rec.err != nil || m.Rdv == nil || m.Rdv.completed()
	r.rec.ready <- struct{}{}
	return over
}

func matched(r *Rendezvous) bool {
	select {
	case <-r.Matched():
		return true
	default:
		return false
	}
}

// TestIrecvIntoRendezvous covers both match orders: the receive posted
// before the RTS arrives (the engine's post path finds it) and after (the
// receive finds the placeholder unexpected). Either way the payload must be
// read into the caller's buffer itself — the packet's Data is that buffer —
// and only after the match.
func TestIrecvIntoRendezvous(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5, 0x5A}, 512)
	for _, order := range []string{"receive first", "rts first"} {
		t.Run(order, func(t *testing.T) {
			c := soloComm(t)
			dst := make([]byte, len(payload))
			var req *Request
			var p *Packet
			if order == "receive first" {
				req = startInto(c, 0, 3, dst)
				p = placeholder(t, c, 3, len(payload))
			} else {
				p = placeholder(t, c, 3, len(payload))
				if matched(p.Rdv) {
					t.Fatal("placeholder matched before any receive")
				}
				req = startInto(c, 0, 3, dst)
			}
			if !matched(p.Rdv) || p.Rdv.MatchErr() != nil {
				t.Fatal("the receive did not consume the placeholder")
			}
			if done(req) {
				t.Fatal("request done before the payload landed")
			}
			if read, err := p.ReceiveRendezvous(bytes.NewReader(payload)); !read || err != nil {
				t.Fatalf("ReceiveRendezvous = %v, %v", read, err)
			}
			if &p.Data[0] != &dst[0] {
				t.Error("the payload was read into a buffer other than the receive's own")
			}
			data, st, err := req.Wait()
			if err != nil || !bytes.Equal(dst, payload) || &data[0] != &dst[0] || st.Len != len(payload) || st.Tag != 3 {
				t.Fatalf("Wait = %d bytes, %+v, %v; dst intact: %v", len(data), st, err, bytes.Equal(dst, payload))
			}
		})
	}
}

// TestRequestDone: a posted receive is not over before its message arrives,
// is as soon as the message matched it, and stays so through Wait.
func TestRequestDone(t *testing.T) {
	c := soloComm(t)
	req := startInto(c, 0, 0, make([]byte, 1))
	if done(req) {
		t.Error("receive done before any send")
	}
	if err := c.Send(0, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !done(req) {
		t.Error("receive not done once its message matched it")
	}
	if _, _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if !done(req) {
		t.Error("request not done after Wait")
	}
}

// TestRecvIntoEager: a packet that carries its payload — eager over tcpnet,
// or any in-process send — is copied into the buffer once, on both match
// orders and through the blocking call.
func TestRecvIntoEager(t *testing.T) {
	c := soloComm(t)
	dst := make([]byte, 5)

	req := startInto(c, 0, 1, dst) // posted first
	if err := c.Send(0, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Wait(); err != nil || string(dst) != "first" {
		t.Fatalf("posted-first receive: %q, %v", dst, err)
	}

	if err := c.Send(0, 1, []byte("later")); err != nil { // message first
		t.Fatal(err)
	}
	req = startInto(c, 0, 1, dst)
	if !done(req) {
		t.Error("receive of an already-arrived eager message is not complete inline")
	}
	if data, _, err := req.Wait(); err != nil || string(dst) != "later" || &data[0] != &dst[0] {
		t.Fatalf("message-first receive: %q, %v", dst, err)
	}

	if err := c.Send(0, 2, []byte("block")); err != nil {
		t.Fatal(err)
	}
	if st, err := c.recvInto(0, 2, dst); err != nil || string(dst) != "block" || st.Len != 5 {
		t.Fatalf("recvInto: %q, %+v, %v", dst, st, err)
	}

	if err := c.Send(0, 4, nil); err != nil { // the empty message and the nil buffer
		t.Fatal(err)
	}
	if st, err := c.recvInto(0, 4, nil); err != nil || st.Len != 0 {
		t.Fatalf("empty recvInto: %+v, %v", st, err)
	}
}

// TestRecvIntoTruncated: a buffer of the wrong length never receives
// anything — the rendezvous payload takes a buffer of its own, so the byte
// stream behind it stays framed — the receive reports *ErrTruncated with both
// lengths, and the envelope's next message is received as usual.
func TestRecvIntoTruncated(t *testing.T) {
	c := soloComm(t)
	payload := bytes.Repeat([]byte{7}, 64)
	for _, n := range []int{63, 65} {
		dst := bytes.Repeat([]byte{0xEE}, n)
		req := startInto(c, 0, 5, dst)
		p := placeholder(t, c, 5, len(payload))
		if read, err := p.ReceiveRendezvous(bytes.NewReader(payload)); !read || err != nil {
			t.Fatalf("ReceiveRendezvous = %v, %v", read, err)
		}
		_, _, err := req.Wait()
		var trunc *ErrTruncated
		if !errors.As(err, &trunc) || trunc.Posted != n || trunc.Arrived != 64 {
			t.Fatalf("buffer of %d for 64 bytes: %v, want ErrTruncated{%d, 64}", n, err, n)
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, n)) {
			t.Errorf("buffer of %d was written to", n)
		}
	}
	// Eager, through the blocking call.
	if err := c.Send(0, 5, payload); err != nil {
		t.Fatal(err)
	}
	var trunc *ErrTruncated
	if _, err := c.recvInto(0, 5, make([]byte, 8)); !errors.As(err, &trunc) {
		t.Fatalf("eager recvInto of 64 bytes into 8: %v", err)
	}
	if err := c.Send(0, 5, payload); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if _, err := c.recvInto(0, 5, dst); err != nil || !bytes.Equal(dst, payload) {
		t.Fatalf("receive after a truncation: %v", err)
	}
}

// TestIrecvIntoCancel: a canceled receive leaves the queue and its buffer
// alone; the message it would have matched goes to the next receive.
func TestIrecvIntoCancel(t *testing.T) {
	c := soloComm(t)
	dst := bytes.Repeat([]byte{0xEE}, 4)
	req := startInto(c, 0, 6, dst)
	if !req.Cancel() {
		t.Fatal("Cancel of an unmatched receive lost")
	}
	if _, _, err := req.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait after Cancel = %v", err)
	}
	if n := c.env.eng.pendingPosted(); n != 0 {
		t.Fatalf("%d receives still posted after Cancel", n)
	}
	p := placeholder(t, c, 6, 4)
	if matched(p.Rdv) {
		t.Fatal("the placeholder matched a canceled receive")
	}
	got := make([]byte, 4)
	req = startInto(c, 0, 6, got)
	if _, err := p.ReceiveRendezvous(bytes.NewReader([]byte("data"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Wait(); err != nil || string(got) != "data" {
		t.Fatalf("receive after a cancel: %q, %v", got, err)
	}
	if !bytes.Equal(dst, []byte{0xEE, 0xEE, 0xEE, 0xEE}) {
		t.Error("the canceled receive's buffer was written to")
	}
}

// TestRecvIntoFailureWaitsForTheReader: when the rendezvous fails while a
// stream is reading into the caller's buffer, the receive is not released —
// not even with the error — before that read has returned: a buffer is never
// handed back with a writer still on it. The failure itself is what ends the
// read (a dead peer's connection closes), so this is a delay, not a hang.
func TestRecvIntoFailureWaitsForTheReader(t *testing.T) {
	c := soloComm(t)
	dst := make([]byte, 8)
	req := startInto(c, 0, 7, dst)
	p := placeholder(t, c, 7, len(dst))

	pr, pw := io.Pipe()
	readDone := make(chan error, 1)
	go func() {
		_, err := p.ReceiveRendezvous(pr)
		readDone <- err
	}()
	if _, err := pw.Write([]byte("half")); err != nil { // returns once the reader took it
		t.Fatal(err)
	}
	lost := &ErrPeerLost{Rank: 0, Cause: errors.New("test: peer died mid-payload")}
	p.Rdv.Fail(lost)
	if done(req) {
		t.Fatal("receive released while a stream was still reading into its buffer")
	}
	pw.CloseWithError(io.ErrUnexpectedEOF) // the dead peer's connection closes
	if err := <-readDone; err == nil {
		t.Fatal("the interrupted read reported success")
	}
	done := make(chan error, 1)
	go func() { _, _, err := req.Wait(); done <- err }()
	select {
	case err := <-done:
		if rank, ok := IsPeerLost(err); !ok || rank != 0 {
			t.Fatalf("Wait = %v, want the peer-loss error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after the reader let go")
	}
}

// TestReceiveRendezvousAfterCompletion: a payload replayed after the transfer
// completed (a redial resent a frame that did arrive) is refused unread, and
// the buffer the application got back is not touched.
func TestReceiveRendezvousAfterCompletion(t *testing.T) {
	c := soloComm(t)
	dst := make([]byte, 4)
	req := startInto(c, 0, 8, dst)
	p := placeholder(t, c, 8, 4)
	if _, err := p.ReceiveRendezvous(bytes.NewReader([]byte("good"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	replay := bytes.NewReader([]byte("evil"))
	if read, err := p.ReceiveRendezvous(replay); read || err != nil || replay.Len() != 4 {
		t.Fatalf("replayed payload: read=%v err=%v, %d of 4 bytes left", read, err, replay.Len())
	}
	if string(dst) != "good" {
		t.Fatalf("replayed payload reached the delivered buffer: %q", dst)
	}

	// A retry while the first stream is still reading takes a buffer of its
	// own; whichever finishes, the receive gets the payload once.
	dst2 := make([]byte, 4)
	req = startInto(c, 0, 8, dst2)
	p = placeholder(t, c, 8, 4)
	pr, pw := io.Pipe()
	first := make(chan error, 1)
	go func() { _, err := p.ReceiveRendezvous(pr); first <- err }()
	pw.Write([]byte("st")) // the first stream stalls half way
	if read, err := p.ReceiveRendezvous(bytes.NewReader([]byte("good"))); !read || err != nil {
		t.Fatalf("retry on a second stream: %v, %v", read, err)
	}
	if done(req) {
		t.Fatal("receive released while the stalled stream still holds its buffer")
	}
	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-first
	if _, _, err := req.Wait(); err != nil || string(dst2) != "good" {
		t.Fatalf("after the retry: %q, %v", dst2, err)
	}
}

// TestFloatsMoveAsTheyLie pins the float view: on this (little-endian) host
// the bytes SendFloats puts on the wire are the slice's own memory and equal
// the portable encoding, RecvFloatsInto fills the caller's slice, and a
// length mismatch is an ErrTruncated in bytes.
func TestFloatsMoveAsTheyLie(t *testing.T) {
	xs := []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	if hostLittleEndian {
		view := floatBytes(xs)
		if !bytes.Equal(view, encodeFloats(xs)) {
			t.Fatal("the in-memory view differs from the little-endian encoding")
		}
		if &view[0] != (*byte)(unsafe.Pointer(&xs[0])) {
			t.Fatal("floatBytes copied")
		}
	}
	if floatBytes(nil) != nil {
		t.Error("floatBytes(nil) is not nil")
	}
	c := soloComm(t)
	if err := c.SendFloats(0, 9, xs); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(xs))
	if st, err := c.RecvFloatsInto(0, 9, got); err != nil || st.Len != 8*len(xs) {
		t.Fatalf("RecvFloatsInto: %+v, %v", st, err)
	}
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("element %d: got %v, want %v", i, got[i], xs[i])
		}
	}
	// The portable path the big-endian host takes decodes the same bytes.
	dec := make([]float64, len(xs))
	if err := decodeFloatsInto(dec, encodeFloats(xs)); err != nil || math.Float64bits(dec[2]) != math.Float64bits(math.Pi) {
		t.Fatalf("decodeFloatsInto: %v, %v", dec, err)
	}
	if err := c.SendFloats(0, 9, xs); err != nil {
		t.Fatal(err)
	}
	var trunc *ErrTruncated
	var req Request
	c.StartRecvFloatsInto(&req, 0, 9, make([]float64, 2))
	if _, _, err := req.Wait(); !errors.As(err, &trunc) || trunc.Posted != 16 || trunc.Arrived != 40 {
		t.Fatalf("short float buffer: %v", err)
	}
}

// TestFloatsBigEndianPaths runs the float paths of a big-endian host — SendFloats
// encodes, the receives decode out of a payload of their own — on this one, by
// clearing hostLittleEndian, and holds every value bit-identical to the
// little-endian run: RecvFloatsInto, StartRecvFloatsInto with the message
// first and with the receive posted first, AllreduceFloats, and the
// *ErrTruncated of a buffer of the wrong length. Not parallel: the flag is
// package state.
func TestFloatsBigEndianPaths(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), -1.5, math.Pi, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	type outcome struct {
		got   [4][]float64 // RecvFloatsInto, message first, receive first, AllreduceFloats
		trunc ErrTruncated
	}
	run := func() outcome {
		var out outcome
		err := RunWorld(2, func(c *Comm) error {
			ys := []float64{1e16 * float64(c.Rank()+1), 1, -1e16, math.Pi / float64(c.Rank()+1)}
			if c.Rank() == 0 {
				for _, tag := range []int{1, 2} {
					if err := c.SendFloats(1, tag, xs); err != nil {
						return err
					}
				}
				if _, _, err := c.Recv(1, 9); err != nil { // rank 1 has posted tag 3
					return err
				}
				for _, tag := range []int{3, 4} {
					if err := c.SendFloats(1, tag, xs); err != nil {
						return err
					}
				}
				_, err := c.AllreduceFloats(ys, OpSum)
				return err
			}
			for i := range out.got[:3] {
				out.got[i] = make([]float64, len(xs))
			}
			if _, err := c.RecvFloatsInto(0, 1, out.got[0]); err != nil {
				return err
			}
			var first, posted Request
			awaitQueued(c)
			if c.StartRecvFloatsInto(&first, 0, 2, out.got[1]); first.latched {
				return fmt.Errorf("receive of a waiting message did not complete inline")
			}
			if c.StartRecvFloatsInto(&posted, 0, 3, out.got[2]); !posted.latched {
				return fmt.Errorf("receive posted ahead of its message completed")
			}
			if err := c.Send(0, 9, nil); err != nil {
				return err
			}
			for _, r := range []*Request{&first, &posted} {
				if _, _, err := r.Wait(); err != nil {
					return err
				}
			}
			var trunc *ErrTruncated
			if _, err := c.RecvFloatsInto(0, 4, make([]float64, 2)); !errors.As(err, &trunc) {
				return fmt.Errorf("short float buffer: %v", err)
			}
			out.trunc = *trunc
			var err error
			out.got[3], err = c.AllreduceFloats(ys, OpSum)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	little := run()
	saved := hostLittleEndian
	t.Cleanup(func() { hostLittleEndian = saved })
	hostLittleEndian = false
	big := run()
	if big.trunc != little.trunc || big.trunc != (ErrTruncated{Posted: 16, Arrived: 8 * len(xs)}) {
		t.Errorf("truncation: big-endian %+v, little-endian %+v", big.trunc, little.trunc)
	}
	for i := range big.got {
		if len(big.got[i]) != len(little.got[i]) {
			t.Fatalf("result %d: %d values big-endian, %d little-endian", i, len(big.got[i]), len(little.got[i]))
		}
		for j := range big.got[i] {
			if b, l := math.Float64bits(big.got[i][j]), math.Float64bits(little.got[i][j]); b != l || (i < 3 && b != math.Float64bits(xs[j])) {
				t.Errorf("result %d, element %d: big-endian %#x, little-endian %#x", i, j, b, l)
			}
		}
	}
}
