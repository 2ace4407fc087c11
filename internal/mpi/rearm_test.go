package mpi

// The allocation budgets of the small-message path and the regression tests
// of the two things that make it allocation-free in this package: a request
// posted again and again, and the two-rank allreduce.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// allocsPerOp runs op on rank 0 of a world of the given size under
// testing.AllocsPerRun while every other rank runs it the same number of
// times, and returns the process-wide allocations per run: every rank's
// share.
func allocsPerOp(t *testing.T, ranks, runs int, op func(c *Comm) error) float64 {
	t.Helper()
	var per float64
	err := RunWorld(ranks, func(c *Comm) error {
		var err error
		do := func() {
			if e := op(c); e != nil && err == nil {
				err = e
			}
		}
		if c.Rank() == 0 {
			per = testing.AllocsPerRun(runs, do)
		} else {
			for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
				do()
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return per
}

// allreduceAllocs is allocsPerOp of an AllreduceFloats of two elements on a
// world of the given size, checked against the sum of the ranks' operands.
// Each call reduces into the operand, so each call resets it first.
func allreduceAllocs(t *testing.T, ranks int) float64 {
	t.Helper()
	xs := make([][2]float64, ranks)
	want := [2]float64{}
	for r := range xs {
		xs[r] = [2]float64{1.5 + float64(r), 10 * float64(r+1)}
		want[0], want[1] = want[0]+xs[r][0], want[1]+xs[r][1]
	}
	operands := make([][2]float64, ranks)
	return allocsPerOp(t, ranks, 200, func(c *Comm) error {
		x := &operands[c.Rank()]
		*x = xs[c.Rank()]
		out, err := c.AllreduceFloats(x[:], OpSum)
		if err == nil && (out[0] != want[0] || out[1] != want[1] || &out[0] != &x[0]) {
			err = fmt.Errorf("allreduce = %v at %p, want %v in the operand at %p", out, &out[0], want, &x[0])
		}
		return err
	})
}

// TestAllocBudgetPairAllreduce: a two-rank AllreduceFloats allocates
// nothing — no encode or decode temporary, no request, no packet, no
// closure, no result: the result lands in the operand.
func TestAllocBudgetPairAllreduce(t *testing.T) {
	per := allreduceAllocs(t, 2)
	t.Logf("%.1f allocations per two-rank AllreduceFloats, both ranks together", per)
	if per > 0 {
		t.Errorf("two-rank AllreduceFloats allocates %.1f times per call over both ranks, want 0", per)
	}
}

// TestAllocBudgetTreeAllreduce: so does a three-rank AllreduceFloats, which
// takes the flat tree — reduce to rank 0, broadcast back — with the
// accumulator, each child's payload and the broadcast result in the
// communicator's scratch.
func TestAllocBudgetTreeAllreduce(t *testing.T) {
	per := allreduceAllocs(t, 3)
	t.Logf("%.1f allocations per three-rank AllreduceFloats, all ranks together", per)
	if per > 0 {
		t.Errorf("three-rank AllreduceFloats allocates %.1f times per call over the ranks, want 0", per)
	}
}

// TestAllocBudgetRearmedRequest: a receive posted on a request the caller
// keeps, and the send it matches, allocate nothing — whichever comes first.
func TestAllocBudgetRearmedRequest(t *testing.T) {
	var req Request
	payload, into := bytes.Repeat([]byte{0x5A}, 64), make([]byte, 64)
	per := allocsPerOp(t, 2, 200, func(c *Comm) error {
		// Two messages a run: rank 1 posts its receive before rank 0 is told
		// to send, then rank 0's second message arrives before its receive.
		if c.Rank() == 0 {
			if _, err := c.recvInto(1, 1, nil); err != nil {
				return err
			}
			if err := c.Send(1, 2, payload); err != nil {
				return err
			}
			return c.Send(1, 3, payload)
		}
		c.StartRecvInto(&req, 0, 2, into)
		if err := c.Send(0, 1, nil); err != nil {
			return err
		}
		if _, _, err := req.Wait(); err != nil {
			return err
		}
		awaitQueued(c)
		c.StartRecvInto(&req, 0, 3, into)
		_, _, err := req.Wait()
		return err
	})
	t.Logf("%.1f allocations per run of three sends and three receives", per)
	if per > 0 {
		t.Errorf("re-armed request: %.1f allocations per run, want 0", per)
	}
}

// awaitQueued spins until a message waits in c's unexpected queue, without
// allocating.
func awaitQueued(c *Comm) {
	for c.env.eng.pendingUnexpected() == 0 {
		runtime.Gosched()
	}
}

// TestPairMatchesTree holds the two-rank allreduce to the flat tree it
// replaces: bit-identical results on both ranks for sums and maxima of
// floats and ints and for an opaque fn that is neither commutative nor
// length-preserving, with the same two messages and the same tree count.
func TestPairMatchesTree(t *testing.T) {
	concat := func(acc, in []byte) ([]byte, error) {
		return append(append([]byte("("), acc...), append(in, ')')...), nil
	}
	floats := [2][]float64{{1e16, -0.0, math.Pi, math.Inf(1)}, {1, 0.0, -1e-16, 2}}
	ints := [2][]int64{{math.MaxInt64, -5, 7}, {1, 5, -7}}
	cases := []struct {
		name string
		data func(rank int) []byte
		elem int
		fn   func(acc, in []byte) ([]byte, error)
	}{
		{"floats/sum", func(r int) []byte { return encodeFloats(floats[r]) }, 8, combineFloats(OpSum)},
		{"floats/max", func(r int) []byte { return encodeFloats(floats[r]) }, 8, combineFloats(OpMax)},
		{"ints/sum", func(r int) []byte { return encodeInts(ints[r]) }, 8, combineInts(OpSum)},
		{"ints/max", func(r int) []byte { return encodeInts(ints[r]) }, 8, combineInts(OpMax)},
		{"opaque/concat", func(r int) []byte { return bytes.Repeat([]byte{byte('a' + r)}, 1+2*r) }, 0, concat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			var tree, pair [2][]byte
			err = w.Run(func(c *Comm) error {
				acc, err := c.reduceTree(0, tc.data(c.Rank()), nil, tc.fn)
				if err != nil {
					return err
				}
				if tree[c.Rank()], err = c.bcastOn(tagAllreduce, 0, acc, nil); err != nil {
					return err
				}
				tree[c.Rank()] = append([]byte(nil), tree[c.Rank()]...)
				for i := 0; i < 3; i++ { // scratch reuse must not leak one call into the next
					if pair[c.Rank()], err = c.allreduceWith(tc.data(c.Rank()), tc.elem, tc.fn); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := range pair {
				if !bytes.Equal(pair[r], tree[r]) {
					t.Errorf("rank %d: pair %q, tree %q", r, pair[r], tree[r])
				}
				pv, _ := w.Perf(r)
				snap := pv.Snapshot()
				// The tree pass sent one message per rank, each pair call one more.
				if got := snap.TotalSentMsgs; got != 1+3 {
					t.Errorf("rank %d sent %d messages, want 4: one per allreduce", r, got)
				}
				if got := snap.Collectives["allreduce"].Tree; got != 3 {
					t.Errorf("rank %d counted %d tree selections for 3 allreduces", r, got)
				}
			}
		})
	}
}

// TestRearmInlineAfterCancel posts a request again after a cancelled
// receive, with the next message already waiting: the earlier outcome must
// not show through.
func TestRearmInlineAfterCancel(t *testing.T) {
	err := RunWorld(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if _, err := c.recvInto(1, 1, nil); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("next"))
		}
		var req Request
		into := make([]byte, 4)
		c.StartRecvInto(&req, 0, 2, into)
		if !req.Cancel() {
			return fmt.Errorf("cancel of an unmatched receive failed")
		}
		if _, _, err := req.Wait(); err != ErrCanceled {
			return fmt.Errorf("canceled Wait = %v", err)
		}
		if err := c.Send(0, 1, nil); err != nil {
			return err
		}
		awaitQueued(c)
		c.StartRecvInto(&req, 0, 2, into)
		if !req.settled {
			return fmt.Errorf("receive of a waiting message did not complete inline")
		}
		for i := 0; i < 2; i++ { // Wait is idempotent
			if data, st, err := req.Wait(); err != nil || string(data) != "next" || st.Len != 4 {
				return fmt.Errorf("Wait %d = %q %+v %v", i, data, st, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
