package mpi_test

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range mpitest.Sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var entered atomic.Int64
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				entered.Add(1)
				if err := c.Barrier(); err != nil {
					return err
				}
				// After the barrier every rank must have entered.
				if got := entered.Load(); got != int64(n) {
					return fmt.Errorf("rank %d passed barrier with only %d/%d ranks entered", c.Rank(), got, n)
				}
				return nil
			})
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d/root=%d", n, root), func(t *testing.T) {
				want := []byte(fmt.Sprintf("payload-from-%d", root))
				mpitest.Run(t, n, func(c *mpi.Comm) error {
					var in []byte
					if c.Rank() == root {
						in = want
					}
					out, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(out, want) {
						return fmt.Errorf("rank %d got %q", c.Rank(), out)
					}
					return nil
				})
			})
		}
	}
}

// TestGatherVariableSizes collects every rank's payload at a root over
// point-to-point, the way tests gather a decomposed field for a serial
// comparison: rank r sends r bytes of value r (rank 0 an empty message) and
// the root receives them by source, in rank order.
func TestGatherVariableSizes(t *testing.T) {
	for _, n := range mpitest.Sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n - 1
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank())
				if c.Rank() != root {
					return c.Send(root, 3, mine)
				}
				for r := 0; r < n; r++ {
					p := mine
					if r != root {
						var err error
						if p, _, err = c.Recv(r, 3); err != nil {
							return err
						}
					}
					if !bytes.Equal(p, bytes.Repeat([]byte{byte(r)}, r)) {
						return fmt.Errorf("part %d = %v", r, p)
					}
				}
				return nil
			})
		})
	}
}

// exchangeRows is the allgather the handshake runs (core's exchange): every
// rank contributes a fixed-width row tagged with its rank, an opaque
// Allreduce concatenates them, and the tag puts each row in its place
// whatever the combining order.
func exchangeRows(c *mpi.Comm, row []int64) ([][]int64, error) {
	mine := mpi.EncodeInts(append([]int64{int64(c.Rank())}, row...))
	all, err := c.Allreduce(mine, func(acc, in []byte) ([]byte, error) {
		return append(acc[:len(acc):len(acc)], in...), nil
	})
	if err != nil {
		return nil, err
	}
	vals, err := mpi.DecodeInts(all)
	if err != nil {
		return nil, err
	}
	w := len(row) + 1
	if len(vals) != w*c.Size() {
		return nil, fmt.Errorf("exchanged %d values, want %d", len(vals), w*c.Size())
	}
	rows := make([][]int64, c.Size())
	for i := 0; i < len(vals); i += w {
		r := vals[i]
		if r < 0 || r >= int64(c.Size()) || rows[r] != nil {
			return nil, fmt.Errorf("bad row tag %d", r)
		}
		rows[r] = vals[i+1 : i+w]
	}
	return rows, nil
}

// slotAllgather is the allgather mpitest.Split exchanges with: each rank
// writes its row into its own slots of a zeroed vector and AllreduceInts
// sums them.
func slotAllgather(c *mpi.Comm, row []int64) ([][]int64, error) {
	w := len(row)
	all := make([]int64, w*c.Size())
	copy(all[w*c.Rank():], row)
	if _, err := c.AllreduceInts(all, mpi.OpSum); err != nil {
		return nil, err
	}
	rows := make([][]int64, c.Size())
	for r := range rows {
		rows[r] = all[w*r : w*(r+1)]
	}
	return rows, nil
}

// TestAllgather runs the handshake's allgather, exchangeRows, at every
// world size: every rank ends up with every rank's row.
func TestAllgather(t *testing.T) {
	for _, n := range mpitest.Sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				r := int64(c.Rank())
				rows, err := exchangeRows(c, []int64{r * 10, -r})
				if err != nil {
					return err
				}
				for r, row := range rows {
					if want := []int64{int64(r) * 10, int64(-r)}; !slices.Equal(row, want) {
						return fmt.Errorf("row %d = %v, want %v", r, row, want)
					}
				}
				return nil
			})
		})
	}
}

// TestAlltoall is the all-to-all exchange xfer's plans run over
// point-to-point: every rank posts a receive from every rank (StartRecvInto)
// before it sends any part, so no send can wait on a receive that is not
// yet posted, and every part lands in its sender's slot.
func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				got := make([]byte, 2*n)
				reqs := make([]mpi.Request, n)
				for j := range reqs {
					c.StartRecvInto(&reqs[j], j, 5, got[2*j:2*j+2])
				}
				for j := 0; j < n; j++ {
					if err := c.Send(j, 5, []byte{byte(c.Rank()), byte(j)}); err != nil {
						return err
					}
				}
				for j := range reqs {
					if _, _, err := reqs[j].Wait(); err != nil {
						return err
					}
					if p := got[2*j : 2*j+2]; p[0] != byte(j) || p[1] != byte(c.Rank()) {
						return fmt.Errorf("from %d got %v", j, p)
					}
				}
				return nil
			})
		})
	}
}

// TestReduceSumEveryRoot drives the binomial-tree reduce the allreduce is
// built on at every root: the root folds every rank's payload, the others
// get nil.
func TestReduceSumEveryRoot(t *testing.T) {
	const n = 6
	sum := func(acc, in []byte) ([]byte, error) {
		a, err := mpi.DecodeFloats(acc)
		if err != nil {
			return nil, err
		}
		b, err := mpi.DecodeFloats(in)
		for i := range a {
			a[i] += b[i]
		}
		return mpi.EncodeFloats(a), err
	}
	for root := 0; root < n; root++ {
		root := root
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				raw, err := mpi.ReduceTree(c, root, mpi.EncodeFloats([]float64{float64(c.Rank()), 1}), sum)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if raw != nil {
						return fmt.Errorf("non-root got %v", raw)
					}
					return nil
				}
				out, err := mpi.DecodeFloats(raw)
				wantSum := float64(n*(n-1)) / 2
				if err != nil || out[0] != wantSum || out[1] != float64(n) {
					return fmt.Errorf("reduce got %v, %v, want [%g %g]", out, err, wantSum, float64(n))
				}
				return nil
			})
		})
	}
}

func TestAllreduceOps(t *testing.T) {
	const n = 5
	cases := []struct {
		op   mpi.Op
		want float64
	}{
		{mpi.OpSum, 10}, // 0+1+2+3+4
		{mpi.OpMax, 4},
		{mpi.OpMin, 0},
		{mpi.OpProd, 0}, // includes rank 0
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.op.String(), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				out, err := c.AllreduceFloats([]float64{float64(c.Rank())}, tc.op)
				if err != nil {
					return err
				}
				if out[0] != tc.want {
					return fmt.Errorf("rank %d: %v = %g, want %g", c.Rank(), tc.op, out[0], tc.want)
				}
				return nil
			})
		})
	}
}

func TestAllreduceInts(t *testing.T) {
	mpitest.Run(t, 7, func(c *mpi.Comm) error {
		out, err := c.AllreduceInts([]int64{int64(c.Rank()), -int64(c.Rank())}, mpi.OpMax)
		if err != nil {
			return err
		}
		if out[0] != 6 || out[1] != 0 {
			return fmt.Errorf("got %v", out)
		}
		return nil
	})
}

func TestConsecutiveCollectivesDoNotInterleave(t *testing.T) {
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		for i := 0; i < 20; i++ {
			want := fmt.Sprintf("round-%d", i)
			var in []byte
			if c.Rank() == i%4 {
				in = []byte(want)
			}
			out, err := c.Bcast(i%4, in)
			if err != nil {
				return err
			}
			if string(out) != want {
				return fmt.Errorf("round %d: got %q", i, out)
			}
			sum, err := c.AllreduceInts([]int64{1}, mpi.OpSum)
			if err != nil {
				return err
			}
			if sum[0] != 4 {
				return fmt.Errorf("round %d: sum %d", i, sum[0])
			}
		}
		return nil
	})
}

// TestBcastIntsFloatsString broadcasts the three payload shapes callers
// send: encoded ints (the handshake's flags), floats, and text (the
// registry).
func TestBcastIntsFloatsString(t *testing.T) {
	mpitest.Run(t, 3, func(c *mpi.Comm) error {
		var in []byte
		if c.Rank() == 0 {
			in = mpi.EncodeInts([]int64{1, 2, 3})
		}
		raw, err := c.Bcast(0, in)
		if err != nil {
			return err
		}
		if is, err := mpi.DecodeInts(raw); err != nil || len(is) != 3 || is[2] != 3 {
			return fmt.Errorf("ints %v, %v", is, err)
		}
		fs, err := c.BcastFloats(1, []float64{2.5})
		if err != nil {
			return err
		}
		if len(fs) != 1 || fs[0] != 2.5 {
			return fmt.Errorf("floats %v", fs)
		}
		if in = nil; c.Rank() == 2 {
			in = []byte("root-two")
		}
		s, err := c.Bcast(2, in)
		if err != nil {
			return err
		}
		if string(s) != "root-two" {
			return fmt.Errorf("string %q", s)
		}
		return nil
	})
}

// TestAllgatherTyped gathers int64 and float64 rows the way mpitest.Split
// exchanges (color, key): each rank fills its own slots of a zeroed vector
// and the typed allreduce sums them.
func TestAllgatherTyped(t *testing.T) {
	const n = 4
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		rows, err := slotAllgather(c, []int64{int64(c.Rank()), int64(-c.Rank())})
		if err != nil {
			return err
		}
		for r, row := range rows {
			if row[0] != int64(r) || row[1] != int64(-r) {
				return fmt.Errorf("ints row %d = %v", r, row)
			}
		}
		xs := make([]float64, n)
		xs[c.Rank()] = float64(c.Rank()) + 0.5
		if _, err := c.AllreduceFloats(xs, mpi.OpSum); err != nil {
			return err
		}
		for r, x := range xs {
			if x != float64(r)+0.5 {
				return fmt.Errorf("floats row %d = %v", r, x)
			}
		}
		return nil
	})
}
