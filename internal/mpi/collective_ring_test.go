package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// ringSizes are the communicator sizes every ring path is exercised at:
// degenerate, even, odd, prime, and power-of-two — the ring algorithms make
// no power-of-two assumption and must not acquire one.
var ringSizes = []int{1, 2, 3, 5, 7, 8}

// TestAllgatherRingAllSizes forces the ring path (threshold 0) over
// variable-size per-rank payloads — the allgatherv shape the size exchange
// exists for — across non-power-of-two communicator sizes.
func TestAllgatherRingAllSizes(t *testing.T) {
	for _, n := range ringSizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				mpi.SetRingThreshold(c, 0)
				// Rank r contributes 3*r bytes of value r (rank 0 contributes
				// an empty block, exercising zero-length ring steps).
				mine := bytes.Repeat([]byte{byte(c.Rank())}, 3*c.Rank())
				parts, err := mpi.Allgather(c, mine)
				if err != nil {
					return err
				}
				if len(parts) != n {
					return fmt.Errorf("got %d parts", len(parts))
				}
				for r, p := range parts {
					if len(p) != 3*r {
						return fmt.Errorf("part %d has len %d, want %d", r, len(p), 3*r)
					}
					for _, b := range p {
						if b != byte(r) {
							return fmt.Errorf("part %d has byte %d", r, b)
						}
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

// TestAllgatherSelectorAgreesOnMixedSizes is the divergence regression for
// the size-based selector: per-rank payloads straddle the threshold (one
// rank far above, the rest far below), and without the up-front size
// exchange ranks would pick different algorithms and deadlock. The perf
// per-algorithm pvar must show every rank took the ring.
func TestAllgatherSelectorAgreesOnMixedSizes(t *testing.T) {
	const n = 5
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		mpi.SetRingThreshold(c, 1024)
		mine := []byte{byte(c.Rank())}
		if c.Rank() == 2 {
			mine = bytes.Repeat([]byte{2}, 4096) // only this rank exceeds the threshold
		}
		parts, err := mpi.Allgather(c, mine)
		if err != nil {
			return err
		}
		for r, p := range parts {
			want := 1
			if r == 2 {
				want = 4096
			}
			if len(p) != want || p[0] != byte(r) {
				return fmt.Errorf("part %d: len %d first %d", r, len(p), p[0])
			}
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
		cs := pv.Snapshot().Collectives["allgather"]
		if cs.Ring != 1 || cs.Tree != 0 {
			t.Errorf("rank %d: allgather algorithms tree=%d ring=%d, want ring=1 tree=0", r, cs.Tree, cs.Ring)
		}
	}
}

// TestCollAlgPvarRoutes checks the per-algorithm performance variable on
// both sides of the crossover: payloads below the threshold count as tree,
// payloads at or above it count as ring, for Allgather and Allreduce.
func TestCollAlgPvarRoutes(t *testing.T) {
	const n = 4
	w, err := mpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		mpi.SetRingThreshold(c, 256)
		if _, err := mpi.Allgather(c, make([]byte, 16)); err != nil { // tree
			return err
		}
		if _, err := mpi.Allgather(c, make([]byte, 512)); err != nil { // ring
			return err
		}
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
	s := pv.Snapshot()
	ag := s.Collectives["allgather"]
	if ag.Tree != 1 || ag.Ring != 1 {
		t.Errorf("allgather tree=%d ring=%d, want 1/1", ag.Tree, ag.Ring)
	}
	ar := s.Collectives["allreduce"]
	if ar.Tree != 2 || ar.Ring != 1 {
		t.Errorf("allreduce tree=%d ring=%d, want 2/1", ar.Tree, ar.Ring)
	}
}

// TestAllgatherAllreduceInterleaved is the tag-confusion regression for the
// satellite bugfix: Allreduce's broadcast phase once shared tagAllgather
// with Allgather's, so tightly interleaved runs of the two composites were
// one reordering away from crossing streams. Both orderings and both
// algorithm routes are exercised.
func TestAllgatherAllreduceInterleaved(t *testing.T) {
	for _, threshold := range []int{-1, 0, 64} {
		threshold := threshold
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			const n = 4
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				mpi.SetRingThreshold(c, threshold)
				for round := 0; round < 10; round++ {
					mine := bytes.Repeat([]byte{byte(c.Rank())}, 8+round*16)
					parts, err := mpi.Allgather(c, mine)
					if err != nil {
						return err
					}
					for r, p := range parts {
						if len(p) != 8+round*16 || p[0] != byte(r) {
							return fmt.Errorf("round %d part %d: len %d", round, r, len(p))
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

// TestCollectiveRootValidation table-tests out-of-range roots across every
// rooted collective: all of them must reject the root with ErrRank on every
// rank, before any traffic moves (so no rank can hang on a partner that
// errored out early).
func TestCollectiveRootValidation(t *testing.T) {
	const n = 3
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		for _, root := range []int{-1, n, n + 7} {
			cases := []struct {
				name string
				call func() error
			}{
				{"bcast", func() error { _, err := c.Bcast(root, []byte("x")); return err }},
				{"gather", func() error { _, err := c.Gather(root, []byte("x")); return err }},
				{"scatter", func() error { _, err := c.Scatter(root, nil); return err }},
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
