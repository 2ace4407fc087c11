// Package mpitest provides helpers for running multi-rank test bodies on an
// in-process mpi.World with a deadlock watchdog, so a missing send in a test
// fails fast instead of hanging the whole suite, and Split, the exchanging
// MPI_Comm_split that tests compare the library's local splits against.
package mpitest

import (
	"fmt"
	"testing"
	"time"

	"mph/internal/mpi"
)

// Timeout is the default watchdog deadline for a multi-rank test body.
const Timeout = 30 * time.Second

// Run executes fn once per rank on a fresh in-process world of n ranks and
// fails the test on error, panic, or watchdog expiry (likely deadlock).
func Run(t *testing.T, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	RunTimeout(t, n, Timeout, fn)
}

// RunTimeout is Run with an explicit watchdog deadline.
func RunTimeout(t *testing.T, n int, d time.Duration, fn func(c *mpi.Comm) error) {
	t.Helper()
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatalf("NewWorld(%d): %v", n, err)
	}
	defer w.Close()

	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic: %v", p)
			}
		}()
		done <- w.Run(fn)
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world of %d ranks: %v", n, err)
		}
	case <-time.After(d):
		w.Close() // release blocked ranks so the goroutine can drain
		t.Fatalf("world of %d ranks: watchdog expired after %v (deadlock?)", n, d)
	}
}

// Sizes is the default set of world sizes exercised by table-driven
// substrate tests: degenerate, odd, power-of-two, and larger mixed cases.
var Sizes = []int{1, 2, 3, 4, 5, 8, 13, 16}

// Split is MPI_Comm_split for tests in which each rank knows only its own
// color and key: one AllreduceInts(OpSum) over a zeroed 2·P vector, in
// which each rank fills its own (color, key) slot, gives every rank every
// member's arguments, then c.SplitWith builds the communicator. Ranks
// passing mpi.Undefined receive nil. It is collective over c.
func Split(c *mpi.Comm, color, key int) (*mpi.Comm, error) {
	all := make([]int64, 2*c.Size())
	all[2*c.Rank()], all[2*c.Rank()+1] = int64(color), int64(key)
	if _, err := c.AllreduceInts(all, mpi.OpSum); err != nil {
		return nil, fmt.Errorf("mpitest: split exchange: %w", err)
	}
	colors, keys := make([]int, c.Size()), make([]int, c.Size())
	for r := range colors {
		colors[r], keys[r] = int(all[2*r]), int(all[2*r+1])
	}
	return c.SplitWith(colors, keys)
}
