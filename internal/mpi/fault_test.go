package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestFaultErrPeerLostUnwrap checks the typed-error contract callers rely on
// for selective recovery: errors.As extracts the lost rank, Unwrap exposes
// the detector's cause, and IsPeerLost is the convenience form of both.
func TestFaultErrPeerLostUnwrap(t *testing.T) {
	cause := errors.New("read tcp: connection reset")
	err := error(&ErrPeerLost{Rank: 3, Cause: cause})

	var pl *ErrPeerLost
	if !errors.As(err, &pl) || pl.Rank != 3 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("%v does not unwrap to its cause", err)
	}
	if rank, ok := IsPeerLost(err); !ok || rank != 3 {
		t.Errorf("IsPeerLost = (%d, %v), want (3, true)", rank, ok)
	}
	if _, ok := IsPeerLost(errors.New("unrelated")); ok {
		t.Error("IsPeerLost matched an unrelated error")
	}
	if !strings.Contains(err.Error(), "rank 3") {
		t.Errorf("message %q does not name the rank", err)
	}
}

// TestFaultErrAbortedUnwrap checks that both abort spellings — by a rank and
// by the launcher — satisfy errors.Is(err, ErrAborted) and carry their code.
func TestFaultErrAbortedUnwrap(t *testing.T) {
	byRank := error(&AbortError{Code: 9, Origin: 2})
	if !errors.Is(byRank, ErrAborted) {
		t.Fatalf("%v is not ErrAborted", byRank)
	}
	if !strings.Contains(byRank.Error(), "rank 2") || !strings.Contains(byRank.Error(), "code 9") {
		t.Errorf("message %q lacks origin/code", byRank)
	}
	byLauncher := error(&AbortError{Code: 1, Origin: -1})
	if !errors.Is(byLauncher, ErrAborted) {
		t.Fatalf("%v is not ErrAborted", byLauncher)
	}
	if !strings.Contains(byLauncher.Error(), "launcher") {
		t.Errorf("message %q does not say the launcher aborted", byLauncher)
	}
}

// TestFaultEnginePeerLost drives the transport's peer-loss hook directly:
// losing a peer fails blocked and future receives from it with *ErrPeerLost,
// leaves messages it sent before dying consumable (the UMQ is consulted
// first), and leaves traffic with surviving ranks untouched.
func TestFaultEnginePeerLost(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	c2, _ := w.Comm(2)

	// A message rank 1 sent before dying must survive its sender.
	if err := c1.Send(0, 7, []byte("pre-death")); err != nil {
		t.Fatal(err)
	}

	// A blocked receive for a second message that will never come.
	blocked := make(chan error, 1)
	go func() {
		_, _, err := c0.Recv(1, 8)
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive post

	cause := errors.New("injected: connection lost")
	w.envs[0].PeerLost(1, cause)

	select {
	case err := <-blocked:
		if rank, ok := IsPeerLost(err); !ok || rank != 1 {
			t.Fatalf("blocked recv returned %v, want ErrPeerLost{Rank: 1}", err)
		}
		if !errors.Is(err, cause) {
			t.Errorf("recv error %v lost the detector's cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer loss did not unblock the pending receive")
	}

	// Future receives from the dead rank fail fast.
	if _, _, err := c0.Recv(1, 9); err == nil {
		t.Fatal("recv from dead rank succeeded")
	} else if _, ok := IsPeerLost(err); !ok {
		t.Fatalf("recv from dead rank returned %v, want ErrPeerLost", err)
	}

	// The pre-death message is still there.
	data, st, err := c0.Recv(1, 7)
	if err != nil || string(data) != "pre-death" || st.Source != 1 {
		t.Fatalf("pre-death message: %q %+v %v", data, st, err)
	}

	// Survivor traffic is unaffected.
	if err := c2.Send(0, 7, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := c0.Recv(2, 7); err != nil || string(data) != "alive" {
		t.Fatalf("survivor traffic: %q %v", data, err)
	}
}

// TestFaultWorldAbort checks MPI_Abort semantics on the in-process world:
// one rank's Abort fails blocked operations on every rank with an
// *AbortError carrying the origin and code.
func TestFaultWorldAbort(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	blocked := make(chan error, 2)
	for _, r := range []int{1, 2} {
		c, _ := w.Comm(r)
		go func(c *Comm) {
			_, _, err := c.Recv(AnySource, 1)
			blocked <- err
		}(c)
	}
	time.Sleep(20 * time.Millisecond)

	c0, _ := w.Comm(0)
	c0.Abort(7)

	for i := 0; i < 2; i++ {
		select {
		case err := <-blocked:
			var ae *AbortError
			if !errors.As(err, &ae) || ae.Code != 7 || ae.Origin != 0 {
				t.Fatalf("blocked recv returned %v, want AbortError{Code: 7, Origin: 0}", err)
			}
			if !errors.Is(err, ErrAborted) {
				t.Errorf("%v is not ErrAborted", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort did not unblock all pending receives")
		}
	}

	// The aborting rank's own subsequent operations fail too.
	if err := c0.Send(1, 1, []byte("x")); !errors.Is(err, ErrAborted) {
		t.Errorf("send after abort returned %v, want ErrAborted", err)
	}
}

// pastOldCrossover is an allreduce payload, in float64s, at the 256 KiB
// from which the selector once took the ring allreduce; it now takes the
// flat tree, in buffers of the call's own rather than the communicator's
// scratch.
const pastOldCrossover = 256 << 10 / 8

// TestChaosAbortDuringRingCollective aborts a 4-rank world while the other
// three ranks sit inside an Allreduce of a payload the ring once took, now
// the flat tree's (each blocked on a receive rank 0, or a rank waiting on
// it, would satisfy); every one of them must return a typed abort error
// instead of hanging — the contract every collective honours.
func TestChaosAbortDuringRingCollective(t *testing.T) {
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	results := make(chan error, 3)
	for r := 1; r < 4; r++ {
		c, _ := w.Comm(r)
		go func(c *Comm) {
			_, err := c.AllreduceFloats(make([]float64, pastOldCrossover), OpSum)
			results <- err
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let the tree stall on absent rank 0

	c0, _ := w.Comm(0)
	c0.Abort(4)

	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("allreduce returned %v, want ErrAborted", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort left a rank blocked in the allreduce")
		}
	}
}

// TestChaosPeerLostMidRing injects a peer-loss verdict while survivors sit
// inside an Allreduce of a payload the ring once took, now the flat tree's:
// rank 0, the tree's root, never enters it, so ranks 1 and 2 block on the
// broadcast only rank 0 could send. Declaring rank 0 dead must fail those
// receives with *ErrPeerLost; the observing rank escalates to Abort exactly
// as the MPH handshake does, which unblocks rank 3, waiting on rank 2, with
// the typed abort error. Every survivor must end with one of the two typed
// failures — zero hangs.
func TestChaosPeerLostMidRing(t *testing.T) {
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	type outcome struct {
		rank int
		err  error
	}
	results := make(chan outcome, 3)
	for r := 1; r < 4; r++ {
		c, _ := w.Comm(r)
		go func(c *Comm) {
			_, err := c.AllreduceFloats(make([]float64, pastOldCrossover), OpSum)
			if _, lost := IsPeerLost(err); lost {
				c.Abort(3) // escalate collective peer-loss, like core.handshake
			}
			results <- outcome{rank: c.Rank(), err: err}
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let the tree stall on absent rank 0

	cause := errors.New("injected: rank 0 crashed")
	for r := 1; r < 4; r++ {
		w.envs[r].PeerLost(0, cause)
	}

	sawPeerLost := false
	for i := 0; i < 3; i++ {
		select {
		case o := <-results:
			if o.err == nil {
				t.Fatalf("rank %d: allreduce succeeded without rank 0", o.rank)
			}
			if rank, lost := IsPeerLost(o.err); lost {
				sawPeerLost = true
				if rank != 0 {
					t.Errorf("rank %d: lost rank %d, want 0", o.rank, rank)
				}
			} else if !errors.Is(o.err, ErrAborted) {
				t.Errorf("rank %d: error %v is neither ErrPeerLost nor ErrAborted", o.rank, o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("peer loss left a survivor blocked in the allreduce")
		}
	}
	if !sawPeerLost {
		t.Error("no survivor observed ErrPeerLost (rank 0's children should)")
	}
}

// TestChaosAbortDuringCollective aborts a 4-rank world while the other
// three ranks sit inside a Barrier; every one of them must return a typed
// abort error instead of hanging.
func TestChaosAbortDuringCollective(t *testing.T) {
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	results := make(chan error, 3)
	for r := 1; r < 4; r++ {
		c, _ := w.Comm(r)
		go func(c *Comm) {
			results <- c.Barrier()
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let the barrier block on rank 0

	c0, _ := w.Comm(0)
	c0.Abort(2)

	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("barrier returned %v, want ErrAborted", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort left a rank blocked in the collective")
		}
	}
}
