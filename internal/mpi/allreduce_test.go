package mpi_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// The tests named for a ring, and the threshold subtests of
// TestAllgatherAllreduceInterleaved, keep names from when the selector could
// pick a ring allreduce; each now checks the path the selector takes for
// the case it names.

// allreduceSizes are the communicator sizes every allreduce path is exercised
// at: degenerate, even, odd, prime, and power-of-two — the tree and the
// pair make no power-of-two assumption and must not acquire one.
var allreduceSizes = []int{1, 2, 3, 5, 7, 8}

// TestAllgatherRingAllSizes runs slotAllgather, the allgather mpitest.Split
// exchanges with — each rank's row in its own slots of a zeroed vector,
// summed — across non-power-of-two communicator sizes: the reduction must
// place every rank's row at every rank.
func TestAllgatherRingAllSizes(t *testing.T) {
	for _, n := range allreduceSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				r := int64(c.Rank())
				rows, err := slotAllgather(c, []int64{r, -r, r * r})
				if err != nil {
					return err
				}
				for r, row := range rows {
					if want := []int64{int64(r), int64(-r), int64(r * r)}; !slices.Equal(row, want) {
						return fmt.Errorf("row %d = %v, want %v", r, row, want)
					}
				}
				return nil
			})
		})
	}
}

// TestAllreduceRingAllSizes checks exact int/float results at every
// communicator size, including payloads with fewer elements than ranks and
// payloads that are not a multiple of the communicator size.
func TestAllreduceRingAllSizes(t *testing.T) {
	for _, n := range allreduceSizes {
		for _, elems := range []int{1, 3, 64, 257} {
			n, elems := n, elems
			t.Run(fmt.Sprintf("n=%d/elems=%d", n, elems), func(t *testing.T) {
				mpitest.Run(t, n, func(c *mpi.Comm) error {
					xs := make([]int64, elems)
					fs := make([]float64, elems)
					for i := range xs {
						xs[i] = int64(c.Rank()*elems + i)
						fs[i] = float64(c.Rank() + i)
					}
					sum, err := c.AllreduceInts(xs, mpi.OpSum)
					if err != nil {
						return err
					}
					for i, got := range sum {
						want := int64(n*i) + int64(elems)*int64(n*(n-1))/2
						if got != want {
							return fmt.Errorf("sum[%d] = %d, want %d", i, got, want)
						}
					}
					max, err := c.AllreduceFloats(fs, mpi.OpMax)
					if err != nil {
						return err
					}
					for i, got := range max {
						if want := float64(n - 1 + i); got != want {
							return fmt.Errorf("max[%d] = %g, want %g", i, got, want)
						}
					}
					return nil
				})
			})
		}
	}
}

// pastScratch is an AllreduceInts length, in elements, that alone fills the
// communicator's 64 KiB scratch (scratchMax); anything longer is reduced in
// buffers of its own.
const pastScratch = 64 << 10 / 8

// pastOldCrossover is an allreduce payload, in 8-byte elements, at the
// 256 KiB from which the selector once took the ring; the flat tree now
// reduces it in buffers of its own, not the communicator's 64 KiB scratch.
const pastOldCrossover = 256 << 10 / 8

// TestAllreduceRingMatchesTree pins buffer-path equivalence on 5 ranks: a
// payload past the old ring crossover, reduced in buffers of its own, gives
// exactly what the same elements give reduced in pieces that fit the
// communicator's scratch (integer sums are exact, so equality is required).
func TestAllreduceRingMatchesTree(t *testing.T) {
	const n, elems, piece = 5, pastOldCrossover + 100, 1000
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		whole := make([]int64, elems)
		for i := range whole {
			whole[i] = int64((c.Rank()+1)*(i+3)) % 97
		}
		pieces := slices.Clone(whole)
		if _, err := c.AllreduceInts(whole, mpi.OpSum); err != nil {
			return err
		}
		for lo := 0; lo < elems; lo += piece {
			if _, err := c.AllreduceInts(pieces[lo:min(lo+piece, elems)], mpi.OpSum); err != nil {
				return err
			}
		}
		for i := range whole {
			if whole[i] != pieces[i] {
				return fmt.Errorf("elem %d: whole %d != pieces %d", i, whole[i], pieces[i])
			}
		}
		return nil
	})
}

// TestCollAlgPvarRoutes checks the per-algorithm performance variable where
// the ring row once began: a 1 MiB AllreduceInts on 8 ranks is counted as a
// tree on every rank, never as a ring, and its result is exactly the
// rank-order fold; the opaque whole-payload Allreduce counts as a tree too.
func TestCollAlgPvarRoutes(t *testing.T) {
	const n, elems = 8, 1 << 20 / 8
	operand := func(rank, i int) int64 { return int64(rank+1)<<32 | int64(i*(rank+3)) }
	want := make([]int64, elems)
	for i := range want {
		for r := 0; r < n; r++ {
			want[i] += operand(r, i)
		}
	}
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		xs := make([]int64, elems)
		for i := range xs {
			xs[i] = operand(c.Rank(), i)
		}
		if _, err := c.AllreduceInts(xs, mpi.OpSum); err != nil {
			return err
		}
		if !slices.Equal(xs, want) {
			return fmt.Errorf("rank %d: 1 MiB sum differs from the rank-order fold", c.Rank())
		}
		concat := func(acc, in []byte) ([]byte, error) { return acc, nil }
		if _, err := c.Allreduce(make([]byte, 1024), concat); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		pv, err := w.Perf(r)
		if err != nil {
			t.Fatal(err)
		}
		if ar := pv.Snapshot().Collectives["allreduce"]; ar.Tree != 2 || ar.Ring != 0 {
			t.Errorf("rank %d: allreduce tree=%d ring=%d, want 2/0", r, ar.Tree, ar.Ring)
		}
	}
}

// TestAllgatherAllreduceInterleaved is the tag-confusion regression for
// tightly interleaved collectives: the handshake's allgather (exchangeRows,
// an opaque Allreduce whose result is copied out of the communicator's
// scratch) alternates with a typed AllreduceInts whose payload grows every
// round, and neither may read the other's traffic or buffers. threshold is
// the payload size in bytes from which a round's AllreduceInts is padded
// past the scratch into buffers of its own (-1: never; 0: every round), so
// the rounds cross between the two buffer paths.
func TestAllgatherAllreduceInterleaved(t *testing.T) {
	for _, threshold := range []int{-1, 0, 64} {
		threshold := threshold
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			const n = 4
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				for round := 0; round < 10; round++ {
					rows, err := exchangeRows(c, []int64{int64(c.Rank()), int64(round)})
					if err != nil {
						return err
					}
					for r, row := range rows {
						if row[1] != int64(round) {
							return fmt.Errorf("round %d row %d = %v", round, r, row)
						}
					}
					elems := 1 + round*4
					if threshold >= 0 && 8*elems >= threshold {
						elems += pastScratch
					}
					xs := make([]int64, elems)
					for i := range xs {
						xs[i] = int64(c.Rank())
					}
					sum, err := c.AllreduceInts(xs, mpi.OpSum)
					if err != nil {
						return err
					}
					for i, got := range sum {
						if want := int64(n * (n - 1) / 2); got != want {
							return fmt.Errorf("round %d sum[%d] = %d, want %d", round, i, got, want)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestCollectiveRootValidation table-tests out-of-range roots across the
// rooted collective, Bcast, and its typed wrapper: both must reject the root
// with ErrRank on every rank, before any traffic moves (so no rank can hang
// on a partner that errored out early).
func TestCollectiveRootValidation(t *testing.T) {
	const n = 3
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		for _, root := range []int{-1, n, n + 7} {
			cases := []struct {
				name string
				call func() error
			}{
				{"bcast", func() error { _, err := c.Bcast(root, []byte("x")); return err }},
				{"bcast-floats", func() error { _, err := c.BcastFloats(root, []float64{1}); return err }},
			}
			for _, tc := range cases {
				err := tc.call()
				if err == nil {
					return fmt.Errorf("%s accepted root %d", tc.name, root)
				}
				if !errors.Is(err, mpi.ErrRank) {
					return fmt.Errorf("%s root %d: error %v is not ErrRank", tc.name, root, err)
				}
			}
		}
		return nil
	})
}

// TestBcastNoAliasing pins the Bcast ownership contract on every rank, root
// included: the returned slice is a private copy, so mutating it does not
// change the caller's input, and mutating the input afterwards does not
// change the result.
func TestBcastNoAliasing(t *testing.T) {
	const n = 4
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		in := []byte("payload")
		var arg []byte
		if c.Rank() == 1 {
			arg = in
		}
		out, err := c.Bcast(1, arg)
		if err != nil {
			return err
		}
		out[0] = 'X'
		if string(in) != "payload" {
			return fmt.Errorf("rank %d: mutating the Bcast result changed the input: %q", c.Rank(), in)
		}
		in[1] = 'Y'
		if string(out) != "Xayload" {
			return fmt.Errorf("rank %d: mutating the input changed the Bcast result: %q", c.Rank(), out)
		}
		return nil
	})
}
