package mpi_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mph/internal/mpi"
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

// TestWaitAllFirstError: of two posted receives, the one that matched keeps
// its result and the one still queued when the world closes fails with
// ErrClosed — the error a wait over both reports first.
func TestWaitAllFirstError(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	var good, pending mpi.Request
	c1.StartRecvInto(&good, 0, 0, nil)
	if err := c0.Send(1, 0, nil); err != nil {
		t.Fatal(err)
	}
	c1.StartRecvInto(&pending, 0, 9, nil) // never satisfied; closing the world fails it
	go func() {
		time.Sleep(30 * time.Millisecond)
		w.Close()
	}()
	if _, _, err := pending.Wait(); !errors.Is(err, mpi.ErrClosed) {
		t.Errorf("pending receive err %v", err)
	}
	if _, _, err := good.Wait(); err != nil {
		t.Errorf("matched receive err %v after close", err)
	}
}

func TestEnvAccessors(t *testing.T) {
	w, err := mpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, _ := w.Comm(2)
	if c.Rank() != 2 || c.Size() != 4 || w.Size() != 4 {
		t.Errorf("world identity %d/%d/%d", c.Rank(), c.Size(), w.Size())
	}
	if c.Context() == 0 {
		t.Error("zero context")
	}
}
