package mpi_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// ringSizes are the communicator sizes every ring path is exercised at:
// degenerate, even, odd, prime, and power-of-two — the ring algorithms make
// no power-of-two assumption and must not acquire one.
var ringSizes = []int{1, 2, 3, 5, 7, 8}

// TestAllgatherRingAllSizes forces the ring path (threshold 0) under
// slotAllgather, the allgather mpitest.Split exchanges with — each rank's
// row in its own slots of a zeroed vector, summed — across non-power-of-two
// communicator sizes: the ring's gather phase is what places every rank's
// row at every rank.
func TestAllgatherRingAllSizes(t *testing.T) {
	for _, n := range ringSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				mpi.SetRingThreshold(c, 0)
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

// TestAllreduceRingAllSizes forces the ring path and checks exact int/float
// results at every communicator size, including payloads with fewer
// elements than ranks (empty chunks) and payloads that do not divide evenly.
func TestAllreduceRingAllSizes(t *testing.T) {
	for _, n := range ringSizes {
		for _, elems := range []int{1, 3, 64, 257} {
			n, elems := n, elems
			t.Run(fmt.Sprintf("n=%d/elems=%d", n, elems), func(t *testing.T) {
				mpitest.Run(t, n, func(c *mpi.Comm) error {
					mpi.SetRingThreshold(c, 0)
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

// TestAllreduceRingMatchesTree pins algorithm equivalence: the same inputs
// reduced with the threshold forcing the ring and forcing the tree must give
// identical results (integer sums are exact, so byte equality is required).
func TestAllreduceRingMatchesTree(t *testing.T) {
	const n, elems = 5, 100
	run := func(t *testing.T, threshold int) [][]int64 {
		results := make([][]int64, n)
		mpitest.Run(t, n, func(c *mpi.Comm) error {
			mpi.SetRingThreshold(c, threshold)
			xs := make([]int64, elems)
			for i := range xs {
				xs[i] = int64((c.Rank()+1)*(i+3)) % 97
			}
			out, err := c.AllreduceInts(xs, mpi.OpSum)
			if err != nil {
				return err
			}
			results[c.Rank()] = out
			return nil
		})
		return results
	}
	ring := run(t, 0)
	tree := run(t, -1)
	for r := range ring {
		for i := range ring[r] {
			if ring[r][i] != tree[r][i] {
				t.Fatalf("rank %d elem %d: ring %d != tree %d", r, i, ring[r][i], tree[r][i])
			}
		}
	}
}

// TestCollAlgPvarRoutes checks the per-algorithm performance variable on
// both sides of the crossover: payloads below the threshold count as tree,
// payloads at or above it count as ring.
func TestCollAlgPvarRoutes(t *testing.T) {
	const n = 4
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		mpi.SetRingThreshold(c, 256)
		if _, err := c.AllreduceInts(make([]int64, 2), mpi.OpSum); err != nil { // tree
			return err
		}
		if _, err := c.AllreduceInts(make([]int64, 64), mpi.OpSum); err != nil { // ring
			return err
		}
		// The opaque whole-payload Allreduce must stay on the tree at any size.
		concat := func(acc, in []byte) ([]byte, error) { return acc, nil }
		if _, err := c.Allreduce(make([]byte, 1024), concat); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := w.Perf(1)
	if err != nil {
		t.Fatal(err)
	}
	ar := pv.Snapshot().Collectives["allreduce"]
	if ar.Tree != 2 || ar.Ring != 1 {
		t.Errorf("allreduce tree=%d ring=%d, want 2/1", ar.Tree, ar.Ring)
	}
}

// TestAllgatherAllreduceInterleaved is the tag-confusion regression for
// tightly interleaved collectives: the handshake's allgather (exchangeRows,
// an opaque Allreduce on the tree) alternates with a typed AllreduceInts
// that the threshold sends down the tree or the ring, with payloads that
// grow every round, and neither may read the other's traffic.
func TestAllgatherAllreduceInterleaved(t *testing.T) {
	for _, threshold := range []int{-1, 0, 64} {
		threshold := threshold
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			const n = 4
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				mpi.SetRingThreshold(c, threshold)
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
					xs := make([]int64, 1+round*4)
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
