package mpi

import (
	"fmt"

	"mph/internal/mpi/perf"
)

// tagScan carries inclusive-scan traffic on the collective context.
const tagScan = 100

// Scan computes an inclusive prefix reduction: rank r receives the
// combination of ranks 0..r's payloads (MPI_Scan). fn must be associative;
// it receives (accumulated-from-lower-ranks, mine) in rank order.
//
// The implementation walks a hypercube: after round k, each rank holds the
// combination of a 2^k-aligned block, giving O(log P) rounds.
func (c *Comm) Scan(data []byte, fn func(low, high []byte) ([]byte, error)) ([]byte, error) {
	defer c.collBegin(perf.CollScan).end()
	size := len(c.group)
	rank := c.rank

	// result accumulates the prefix including this rank; carry accumulates
	// the full block value forwarded to higher partners.
	result := make([]byte, len(data))
	copy(result, data)
	carry := make([]byte, len(data))
	copy(carry, data)

	for dist := 1; dist < size; dist <<= 1 {
		var req *Request
		if rank-dist >= 0 {
			req = c.irecvCtx(c.cctx, rank-dist, tagScan, nil)
		}
		if rank+dist < size {
			if err := c.sendCtx(c.cctx, rank+dist, tagScan, carry, nil); err != nil {
				return nil, fmt.Errorf("mpi: scan send: %w", err)
			}
		}
		if req != nil {
			in, _, err := req.Wait()
			if err != nil {
				return nil, fmt.Errorf("mpi: scan recv: %w", err)
			}
			// in combines ranks [rank-2*dist+1 .. rank-dist] (or fewer at
			// the left edge); fold it below both accumulators.
			result, err = fn(in, result)
			if err != nil {
				return nil, fmt.Errorf("mpi: scan combine: %w", err)
			}
			carry, err = fn(in, carry)
			if err != nil {
				return nil, fmt.Errorf("mpi: scan combine: %w", err)
			}
		}
	}
	return result, nil
}

// ScanInts computes an elementwise inclusive prefix reduction of int64
// slices.
func (c *Comm) ScanInts(xs []int64, op Op) ([]int64, error) {
	out, err := c.Scan(encodeInts(xs), combineInts(op))
	if err != nil {
		return nil, err
	}
	return decodeInts(out)
}

// ScanFloats computes an elementwise inclusive prefix reduction of float64
// slices.
func (c *Comm) ScanFloats(xs []float64, op Op) ([]float64, error) {
	out, err := c.Scan(encodeFloats(xs), combineFloats(op))
	if err != nil {
		return nil, err
	}
	return decodeFloats(out)
}

// ExclusiveScanInts returns, at rank r, the combination of ranks 0..r-1
// (identity at rank 0: 0 for OpSum, 1 for OpProd; min/max are not supported
// because they lack a portable identity for int64 payloads here).
func (c *Comm) ExclusiveScanInts(xs []int64, op Op) ([]int64, error) {
	if op != OpSum && op != OpProd {
		return nil, fmt.Errorf("mpi: exclusive scan supports sum and prod, got %v", op)
	}
	incl, err := c.ScanInts(xs, op)
	if err != nil {
		return nil, err
	}
	// Remove this rank's own contribution elementwise.
	out := make([]int64, len(incl))
	for i := range incl {
		switch op {
		case OpSum:
			out[i] = incl[i] - xs[i]
		case OpProd:
			if xs[i] == 0 {
				return nil, fmt.Errorf("mpi: exclusive prod scan with zero contribution is ambiguous")
			}
			out[i] = incl[i] / xs[i]
		}
	}
	return out, nil
}
