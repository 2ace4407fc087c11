package mpi_test

import (
	"bytes"
	"fmt"
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

func TestGatherVariableSizes(t *testing.T) {
	for _, n := range mpitest.Sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			root := n - 1
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				// Rank r contributes r bytes of value r (gatherv shape).
				mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank())
				parts, err := c.Gather(root, mine)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if parts != nil {
						return fmt.Errorf("non-root rank %d got parts", c.Rank())
					}
					return nil
				}
				for r, p := range parts {
					if len(p) != r {
						return fmt.Errorf("part %d has len %d", r, len(p))
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

func TestAllgather(t *testing.T) {
	for _, n := range mpitest.Sizes {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				mine := []byte(fmt.Sprintf("r%d", c.Rank()))
				parts, err := mpi.Allgather(c, mine)
				if err != nil {
					return err
				}
				if len(parts) != n {
					return fmt.Errorf("got %d parts", len(parts))
				}
				for r, p := range parts {
					if want := fmt.Sprintf("r%d", r); string(p) != want {
						return fmt.Errorf("part %d = %q, want %q", r, p, want)
					}
				}
				return nil
			})
		})
	}
}

func TestScatter(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				var parts [][]byte
				if c.Rank() == 0 {
					parts = make([][]byte, n)
					for r := range parts {
						parts[r] = []byte(fmt.Sprintf("part-%d", r))
					}
				}
				got, err := c.Scatter(0, parts)
				if err != nil {
					return err
				}
				if want := fmt.Sprintf("part-%d", c.Rank()); string(got) != want {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			mpitest.Run(t, n, func(c *mpi.Comm) error {
				parts := make([][]byte, n)
				for j := range parts {
					parts[j] = []byte(fmt.Sprintf("%d->%d", c.Rank(), j))
				}
				got, err := c.Alltoall(parts)
				if err != nil {
					return err
				}
				for j, p := range got {
					if want := fmt.Sprintf("%d->%d", j, c.Rank()); string(p) != want {
						return fmt.Errorf("from %d got %q, want %q", j, p, want)
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

// TestAllgatherTyped gathers encoded int64 and float64 rows — Split's
// (color, key) pairs are the first kind — and decodes every rank's row.
func TestAllgatherTyped(t *testing.T) {
	const n = 4
	mpitest.Run(t, n, func(c *mpi.Comm) error {
		parts, err := mpi.Allgather(c, mpi.EncodeInts([]int64{int64(c.Rank()), int64(-c.Rank())}))
		if err != nil {
			return err
		}
		for r, raw := range parts {
			if row, err := mpi.DecodeInts(raw); err != nil || row[0] != int64(r) || row[1] != int64(-r) {
				return fmt.Errorf("ints row %d = %v, %v", r, row, err)
			}
		}
		parts, err = mpi.Allgather(c, mpi.EncodeFloats([]float64{float64(c.Rank()) + 0.5}))
		if err != nil {
			return err
		}
		for r, raw := range parts {
			if row, err := mpi.DecodeFloats(raw); err != nil || row[0] != float64(r)+0.5 {
				return fmt.Errorf("floats row %d = %v, %v", r, row, err)
			}
		}
		return nil
	})
}
