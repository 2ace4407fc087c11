package mpi

import (
	"fmt"
	"math"
	"testing"

	"mph/internal/mpi/perf"
)

// TestAllreduceFloatsInPlace holds the typed allreduces to MPI_IN_PLACE on
// every algorithm choose can pick: the returned slice is the operand, and it
// holds, bit for bit, a reference folded in rank order. The operands are
// multiples of 1/8 whose sums are exact, so every bracketing the algorithms
// use gives the reference's bits.
func TestAllreduceFloatsInPlace(t *testing.T) {
	const elems = 7 // more than the ring's five chunks, not a multiple of them
	operand := func(rank, i int) float64 { return float64((rank+1)*(i+3)*(1-2*(i%2))) / 8 }
	cases := []struct {
		name  string
		hosts []string // one label a rank; "" is none
		ring  bool
		alg   func(perf.CollSnap) uint64 // the counter the path bumps
	}{
		{"one-rank", []string{""}, false, func(s perf.CollSnap) uint64 { return s.Tree }},
		{"pair", []string{"", ""}, false, func(s perf.CollSnap) uint64 { return s.Tree }},
		{"tree-3", []string{"", "", ""}, false, func(s perf.CollSnap) uint64 { return s.Tree }},
		{"tree-5", []string{"", "", "", "", ""}, false, func(s perf.CollSnap) uint64 { return s.Tree }},
		{"ring-5", []string{"", "", "", "", ""}, true, func(s perf.CollSnap) uint64 { return s.Ring }},
		{"two-level-3+2", []string{"hA", "hA", "hA", "hB", "hB"}, false, func(s perf.CollSnap) uint64 { return s.Hier }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.hosts)
			var sum, max [elems]float64
			var isum [elems]int64
			for i := range sum {
				max[i] = math.Inf(-1)
				for r := 0; r < n; r++ {
					x := operand(r, i)
					sum[i] += x
					max[i] = math.Max(max[i], x)
					isum[i] += int64(8 * x)
				}
			}
			w := newHierWorld(t, tc.hosts)
			err := w.Run(func(c *Comm) error {
				if tc.ring {
					SetRingThreshold(c, 0)
				}
				for _, op := range []Op{OpSum, OpMax} {
					xs := make([]float64, elems)
					for i := range xs {
						xs[i] = operand(c.Rank(), i)
					}
					out, err := c.AllreduceFloats(xs, op)
					if err != nil {
						return err
					}
					if &out[0] != &xs[0] || len(out) != elems {
						return fmt.Errorf("%v: returned %d elements at %p, not the operand at %p", op, len(out), &out[0], &xs[0])
					}
					want := sum
					if op == OpMax {
						want = max
					}
					for i := range want {
						if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
							return fmt.Errorf("%v: element %d is %v, reference %v", op, i, xs[i], want[i])
						}
					}
				}
				is := make([]int64, elems)
				for i := range is {
					is[i] = int64(8 * operand(c.Rank(), i))
				}
				out, err := c.AllreduceInts(is, OpSum)
				if err != nil {
					return err
				}
				if &out[0] != &is[0] || [elems]int64(is) != isum {
					return fmt.Errorf("ints: %v at %p, want %v in the operand at %p", out, &out[0], isum, &is[0])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			pv, err := w.Perf(0)
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.alg(pv.Snapshot().Collectives["allreduce"]); got != 3 {
				t.Errorf("rank 0 counted %d of its 3 allreduces on the path under test", got)
			}
		})
	}
}
