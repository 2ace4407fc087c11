package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

func TestSendRecvPair(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []byte("hello"))
		case 1:
			data, st, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "hello" {
				return fmt.Errorf("got %q, want %q", data, "hello")
			}
			if st.Source != 0 || st.Tag != 7 || st.Len != 5 {
				return fmt.Errorf("bad status %+v", st)
			}
		}
		return nil
	})
}

func TestSendCopiesPayload(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not be visible to the receiver
			return c.Send(1, 1, nil)
		}
		data, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if _, _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if data[0] != 1 {
			return fmt.Errorf("receiver saw sender's mutation: %v", data)
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		if err := c.Send(0, 3, []byte("loop")); err != nil {
			return err
		}
		data, _, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if string(data) != "loop" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	const n = 100
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, mpi.EncodeInts([]int64{int64(i)})); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			raw, _, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if vals, err := mpi.DecodeInts(raw); err != nil || vals[0] != int64(i) {
				return fmt.Errorf("message %d overtaken: got %d", i, vals[0])
			}
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := c.Send(1, 2, []byte("two")); err != nil {
				return err
			}
			return c.Send(1, 1, []byte("one"))
		}
		one, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		two, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(one) != "one" || string(two) != "two" {
			return fmt.Errorf("tag matching broken: %q %q", one, two)
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	mpitest.Run(t, 3, func(c *mpi.Comm) error {
		if c.Rank() == 2 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				data, st, err := c.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return err
				}
				if want := fmt.Sprintf("from%d", st.Source); string(data) != want {
					return fmt.Errorf("got %q from %d", data, st.Source)
				}
				seen[st.Source] = true
			}
			if !seen[0] || !seen[1] {
				return fmt.Errorf("missing senders: %v", seen)
			}
			return nil
		}
		return c.Send(2, 10+c.Rank(), []byte(fmt.Sprintf("from%d", c.Rank())))
	})
}

// TestIsendIrecvWaitAll is the ring shift MPI codes write with Isend, Irecv
// and Waitall, in this package's one nonblocking primitive: post the
// receive, send, wait.
func TestIsendIrecvWaitAll(t *testing.T) {
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		var rr mpi.Request
		got := make([]byte, 1)
		c.StartRecvInto(&rr, prev, 0, got)
		if err := c.Send(next, 0, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		for i := 0; i < 2; i++ { // Wait is idempotent
			if data, _, err := rr.Wait(); err != nil || &data[0] != &got[0] || got[0] != byte(prev) {
				return fmt.Errorf("ring recv got %v, %v, want [%d]", got, err, prev)
			}
		}
		return nil
	})
}

// TestSendRecvExchangeNoDeadlock: two ranks that each send the other a
// rendezvous-sized payload do not deadlock when both post the receive first.
func TestSendRecvExchangeNoDeadlock(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		out, in := bytes.Repeat([]byte{byte(c.Rank())}, 1<<16), make([]byte, 1<<16)
		var req mpi.Request
		c.StartRecvInto(&req, peer, 0, in)
		if err := c.Send(peer, 0, out); err != nil {
			return err
		}
		if _, _, err := req.Wait(); err != nil {
			return err
		}
		if in[0] != byte(peer) || in[len(in)-1] != byte(peer) {
			return fmt.Errorf("exchange got first=%d last=%d", in[0], in[len(in)-1])
		}
		return nil
	})
}

func TestSendErrors(t *testing.T) {
	mpitest.Run(t, 1, func(c *mpi.Comm) error {
		if err := c.Send(5, 0, nil); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("send to bad rank: err = %v", err)
		}
		if err := c.Send(0, -2, nil); !errors.Is(err, mpi.ErrTag) {
			return fmt.Errorf("send with bad tag: err = %v", err)
		}
		if _, _, err := c.Recv(9, 0); !errors.Is(err, mpi.ErrRank) {
			return fmt.Errorf("recv from bad rank: err = %v", err)
		}
		return nil
	})
}

// TestTypedHelpers moves the payload shapes callers send point to point:
// floats through the float view, ints through the portable codec (the
// handshake's flags), and text.
func TestTypedHelpers(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.SendFloats(1, 0, []float64{1.5, -2.25}); err != nil {
				return err
			}
			if err := c.Send(1, 1, mpi.EncodeInts([]int64{-7, 42})); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("typed"))
		}
		fs := make([]float64, 2)
		if _, err := c.RecvFloatsInto(0, 0, fs); err != nil {
			return err
		}
		if fs[0] != 1.5 || fs[1] != -2.25 {
			return fmt.Errorf("floats %v", fs)
		}
		raw, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if is, err := mpi.DecodeInts(raw); err != nil || len(is) != 2 || is[0] != -7 || is[1] != 42 {
			return fmt.Errorf("ints %v, %v", is, err)
		}
		s, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(s) != "typed" {
			return fmt.Errorf("string %q", s)
		}
		return nil
	})
}

// A posted receive is an enqueue into the engine's posted-receive queue,
// never a goroutine per call. Post 10k unmatched receives, check the
// goroutine count is flat, then Cancel them all and verify the cancellation
// contract.
func TestIrecvSpawnsNoGoroutines(t *testing.T) {
	const posts = 10000
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, _ := w.Comm(0)

	before := runtime.NumGoroutine()
	reqs := make([]mpi.Request, posts)
	for i := range reqs {
		c.StartRecvInto(&reqs[i], 0, 1, nil) // never matched
	}
	after := runtime.NumGoroutine()
	if after > before+2 { // tolerate unrelated runtime churn, not 10k spawns
		t.Fatalf("goroutines went %d -> %d across %d posted receives", before, after, posts)
	}

	for i := range reqs {
		r := &reqs[i]
		if !r.Cancel() {
			t.Fatalf("Cancel of unmatched request %d returned false", i)
		}
		if _, _, err := r.Wait(); !errors.Is(err, mpi.ErrCanceled) {
			t.Fatalf("canceled request %d: Wait err %v", i, err)
		}
		if r.Cancel() {
			t.Fatalf("second Cancel of request %d returned true", i)
		}
	}

	// A canceled receive leaks nothing: a fresh receive still matches.
	if err := c.Send(0, 1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Recv(0, 1)
	if err != nil || string(data) != "late" {
		t.Fatalf("post-cancel recv: %q, %v", data, err)
	}

	// Cancel loses the race once the message has matched.
	var done mpi.Request
	c.StartRecvInto(&done, 0, 2, nil)
	if err := c.Send(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := done.Wait(); err != nil {
		t.Fatal(err)
	}
	if done.Cancel() {
		t.Fatal("Cancel of completed request returned true")
	}
	// Cancel of a request never posted is a no-op.
	if new(mpi.Request).Cancel() {
		t.Fatal("Cancel of an idle request returned true")
	}
}
