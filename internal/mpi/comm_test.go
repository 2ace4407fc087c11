package mpi_test

import (
	"fmt"
	"reflect"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

func TestWorldCommBasics(t *testing.T) {
	const n = 6
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		if c.Size() != n {
			return fmt.Errorf("size %d", c.Size())
		}
		g := c.Group()
		for i, wr := range g {
			if wr != i {
				return fmt.Errorf("group[%d] = %d", i, wr)
			}
		}
		return nil
	})
}

// colorsOf is every rank's color, for splits in which each rank can compute
// every member's: SplitWith then needs no exchange.
func colorsOf(c *mpi.Comm, color func(rank int) int) []int {
	colors := make([]int, c.Size())
	for r := range colors {
		colors[r] = color(r)
	}
	return colors
}

func TestSplitEvenOdd(t *testing.T) {
	const n = 7
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		color := c.Rank() % 2
		sub, err := c.SplitWith(colorsOf(c, func(r int) int { return r % 2 }), nil)
		if err != nil {
			return err
		}
		wantSize := (n + 1 - color) / 2
		if sub.Size() != wantSize {
			return fmt.Errorf("color %d size %d, want %d", color, sub.Size(), wantSize)
		}
		// Default key 0 orders by parent rank: my sub rank is rank/2.
		if sub.Rank() != c.Rank()/2 {
			return fmt.Errorf("rank %d got sub rank %d", c.Rank(), sub.Rank())
		}
		// The subcommunicator must be usable and isolated: a sum over it
		// counts only its members.
		sum, err := sub.AllreduceInts([]int64{1}, mpi.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != int64(wantSize) {
			return fmt.Errorf("sub allreduce %d, want %d", sum[0], wantSize)
		}
		return nil
	})
}

func TestSplitKeyReversesOrder(t *testing.T) {
	const n = 5
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		sub, err := mpitest.Split(c, 0, -c.Rank())
		if err != nil {
			return err
		}
		if want := n - 1 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitUndefined(t *testing.T) {
	const n = 4
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		color := 0
		if c.Rank() >= 2 {
			color = mpi.Undefined
		}
		sub, err := mpitest.Split(c, color, 0)
		if err != nil {
			return err
		}
		if c.Rank() >= 2 {
			if sub != nil {
				return fmt.Errorf("rank %d expected nil comm", c.Rank())
			}
			return nil
		}
		if sub == nil || sub.Size() != 2 {
			return fmt.Errorf("rank %d got %v", c.Rank(), sub)
		}
		return nil
	})
}

func TestSplitContextIsolation(t *testing.T) {
	// Messages sent on a subcommunicator must not be received on the
	// parent, even with matching ranks and tags.
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		sub, err := c.SplitWith(make([]int, c.Size()), nil)
		if err != nil {
			return err
		}
		if sub.Context() == c.Context() {
			return fmt.Errorf("child context equals parent context")
		}
		if c.Rank() == 0 {
			if err := sub.Send(1, 0, []byte("sub")); err != nil {
				return err
			}
			return c.Send(1, 0, []byte("parent"))
		}
		// Receive on parent first: must get the parent message even though
		// the sub message was sent earlier with the same (src, tag).
		p, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(p) != "parent" {
			return fmt.Errorf("parent comm received %q", p)
		}
		s, _, err := sub.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(s) != "sub" {
			return fmt.Errorf("sub comm received %q", s)
		}
		return nil
	})
}

func TestNestedSplits(t *testing.T) {
	const n = 8
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		half, err := c.SplitWith(colorsOf(c, func(r int) int { return r / 4 }), nil) // two halves of 4
		if err != nil {
			return err
		}
		quarter, err := half.SplitWith(colorsOf(half, func(r int) int { return r / 2 }), nil) // four quarters of 2
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		sum, err := quarter.AllreduceInts([]int64{int64(c.Rank())}, mpi.OpSum)
		if err != nil {
			return err
		}
		// Quarters pair world ranks (0,1),(2,3),(4,5),(6,7).
		base := (c.Rank() / 2) * 2
		if want := int64(base + base + 1); sum[0] != want {
			return fmt.Errorf("quarter sum %d, want %d", sum[0], want)
		}
		return nil
	})
}

func TestDupIsolated(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		d := c.Dup()
		if d.Context() == c.Context() {
			return fmt.Errorf("dup context equals parent")
		}
		if d.Rank() != c.Rank() || d.Size() != c.Size() {
			return fmt.Errorf("dup changed shape: %d/%d", d.Rank(), d.Size())
		}
		if c.Rank() == 0 {
			if err := d.Send(1, 0, []byte("dup")); err != nil {
				return err
			}
			return nil
		}
		data, _, err := d.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(data) != "dup" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
}

func TestCommFromGroup(t *testing.T) {
	const n = 6
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		// Only even world ranks form the group, in reversed order.
		group := []int{4, 2, 0}
		if c.Rank()%2 != 0 {
			return nil // non-members simply do not call
		}
		sub, err := mpi.CommFromGroup(c, group, "evens-reversed")
		if err != nil {
			return err
		}
		wantRank := map[int]int{4: 0, 2: 1, 0: 2}[c.Rank()]
		if sub.Rank() != wantRank {
			return fmt.Errorf("world %d: rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		if !reflect.DeepEqual(sub.Group(), group) {
			return fmt.Errorf("group %v", sub.Group())
		}
		got, err := sub.AllreduceInts([]int64{int64(c.Rank())}, mpi.OpSum)
		if err != nil {
			return err
		}
		if got[0] != 6 {
			return fmt.Errorf("sum %d", got[0])
		}
		return nil
	})
}

func TestCommFromGroupErrors(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := mpi.CommFromGroup(c, []int{1}, "not-member"); err == nil {
			return fmt.Errorf("expected error for non-member caller")
		}
		if _, err := mpi.CommFromGroup(c, []int{0, 0}, "dup-rank"); err == nil {
			return fmt.Errorf("expected error for duplicate rank")
		}
		if _, err := mpi.CommFromGroup(c, []int{0, 7}, "bad-rank"); err == nil {
			return fmt.Errorf("expected error for out-of-range rank")
		}
		return nil
	})
}

func TestSplitGroupsDisjointTraffic(t *testing.T) {
	// Two sibling subcommunicators from one split must not see each
	// other's messages even with identical ranks and tags.
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		sub, err := c.SplitWith(colorsOf(c, func(r int) int { return r / 2 }), nil)
		if err != nil {
			return err
		}
		peer := 1 - sub.Rank()
		want := fmt.Sprintf("group-%d", c.Rank()/2)
		if err := sub.Send(peer, 0, []byte(want)); err != nil {
			return err
		}
		got, _, err := sub.Recv(peer, 0)
		if err != nil {
			return err
		}
		if string(got) != want {
			return fmt.Errorf("cross-group leak: got %q, want %q", got, want)
		}
		return nil
	})
}
