package mpi_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := mpi.NewWorld(0); err == nil {
		t.Error("world of 0 accepted")
	}
	if _, err := mpi.NewWorld(-3); err == nil {
		t.Error("negative world accepted")
	}
	w, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != 3 {
		t.Errorf("size %d", w.Size())
	}
	if _, err := w.Comm(3); !errors.Is(err, mpi.ErrRank) {
		t.Errorf("Comm(3) err %v", err)
	}
	if _, err := w.Comm(-1); !errors.Is(err, mpi.ErrRank) {
		t.Errorf("Comm(-1) err %v", err)
	}
}

func TestCloseReleasesBlockedReceiver(t *testing.T) {
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w.Comm(0)
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Recv(0, 0) // nothing will ever arrive
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Close()
	select {
	case err := <-done:
		if !errors.Is(err, mpi.ErrClosed) {
			t.Errorf("blocked recv returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the blocked receiver")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w.Comm(0)
	w.Close()
	if err := c.Send(1, 0, []byte("x")); !errors.Is(err, mpi.ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestCloseReleasesBlockedSsend(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w.Comm(0)
	done := make(chan error, 1)
	go func() { done <- c.Ssend(1, 0, []byte("never matched")) }()
	time.Sleep(20 * time.Millisecond)
	w.Close()
	select {
	case <-done: // released (error value unspecified: the ack is closed)
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the blocked Ssend")
	}
}

func TestRunWorldPropagatesError(t *testing.T) {
	wantErr := errors.New("rank failure")
	err := mpi.RunWorld(3, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("got %v", err)
	}
}

func TestRunWorldRepanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic not propagated")
		}
		if !strings.Contains(fmt.Sprint(p), "boom") {
			t.Errorf("panic value %v", p)
		}
	}()
	_ = mpi.RunWorld(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		// The other rank blocks; World.Run's recovery must close the
		// world and release it.
		_, _, err := c.Recv(0, 0)
		return err
	})
}

func TestRequestDone(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)

	req := c1.Irecv(0, 0)
	if req.Done() {
		t.Error("Irecv done before any send")
	}
	if err := c0.Send(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if !req.Done() {
		t.Error("request not done after Wait")
	}
	// Isend completes immediately (eager).
	sreq := c0.Isend(1, 1, nil)
	if !sreq.Done() {
		t.Error("Isend not immediately done")
	}
	if _, _, err := c1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllFirstError(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	good := c1.Irecv(0, 0)
	if err := c0.Send(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	pending := c1.Irecv(0, 9) // never satisfied; closing the world fails it
	go func() {
		time.Sleep(30 * time.Millisecond)
		w.Close()
	}()
	if err := mpi.WaitAll(good, pending); !errors.Is(err, mpi.ErrClosed) {
		t.Errorf("WaitAll err %v", err)
	}
}

func TestEnvAccessors(t *testing.T) {
	w, err := mpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, _ := w.Comm(2)
	if c.WorldRank() != 2 || c.WorldSize() != 4 {
		t.Errorf("world identity %d/%d", c.WorldRank(), c.WorldSize())
	}
	if c.Context() == 0 {
		t.Error("zero context")
	}
}

// A synchronous send over the TCP transport whose receiver never posts a
// matching receive must be released when the sender's endpoint closes: the
// transport fails every pending acknowledgment on Close, exactly like the
// in-process engine closing a message's Ack channel.
func TestTCPSsendReleasedByClose(t *testing.T) {
	rv, err := bootstrap.NewRendezvous(2)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()

	// Rank 0 exists only to accept the connection; it never receives, and it
	// tears down after rank 1 is finished.
	rank0May := make(chan struct{})
	rank0Err := make(chan error, 1)
	go func() {
		env, err := tcpnet.Init(0, 2, rv.Advertised())
		if err != nil {
			rank0Err <- err
			return
		}
		<-rank0May
		rank0Err <- env.Close()
	}()

	rank1Err := make(chan error, 1)
	go func() {
		defer close(rank0May)
		env, err := tcpnet.Init(1, 2, rv.Advertised())
		if err != nil {
			rank1Err <- err
			return
		}
		c := mpi.WorldComm(env)
		ssendDone := make(chan error, 1)
		go func() { ssendDone <- c.Ssend(0, 99, []byte("never consumed")) }()
		// Let the message reach rank 0's unexpected queue; the ack must
		// still be pending because nothing over there will receive tag 99.
		time.Sleep(50 * time.Millisecond)
		select {
		case err := <-ssendDone:
			rank1Err <- fmt.Errorf("Ssend completed without a matching receive: %v", err)
			return
		default:
		}
		if err := env.Close(); err != nil {
			rank1Err <- err
			return
		}
		select {
		case <-ssendDone: // released; the error value is unspecified
			rank1Err <- nil
		case <-time.After(10 * time.Second):
			rank1Err <- errors.New("Ssend still blocked after Close")
		}
	}()

	for _, ch := range []chan error{rank1Err, rank0Err} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("TCP shutdown test watchdog expired")
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
}
