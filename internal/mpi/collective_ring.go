package mpi

import "fmt"

// The bandwidth-optimal ring allreduce. The tree (reduce+bcast) finishes in
// O(log P) rounds but funnels the whole payload through a root, the classic
// root hotspot. The ring trades rounds for bandwidth: 2(P-1) steps in which
// every rank forwards exactly one chunk to its successor, so no rank ever
// touches more than ~2x its share of the data. Where each wins is measured,
// not assumed: see choose (collective_select.go).

// The ring tags carry the per-step chunk traffic of the ring allreduce.
// They live here rather than in the iota block of collective.go so the
// block's comment about distinct ops keeping distinct tags stays exact.
const (
	tagRingReduceScatter = 200 + iota
	tagRingReduceGather
)

// allreduceRing is the Rabenseifner-style bandwidth-optimal allreduce: a
// ring reduce-scatter (P-1 steps, each combining one payload chunk) followed
// by a ring allgather of the reduced chunks. The payload is cut into P
// chunks on elem-byte element boundaries, so fn only ever sees elem-aligned
// subranges; per-rank traffic is ~2n(P-1)/P bytes instead of the tree's
// O(n log P) critical path through the root.
//
// fn must be elementwise, associative, and commutative over elem-byte
// elements, and length-preserving on any aligned subrange; every rank must
// pass the same payload length (both are the standard MPI_Allreduce
// contract, which the opaque whole-payload Allreduce cannot assume).
func (c *Comm) allreduceRing(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	size := len(c.group)
	n := len(data)
	elems := n / elem

	// Chunk i covers offs[i]:offs[i+1]; chunks differ by at most one element
	// and may be empty when P > elems.
	offs := make([]int, size+1)
	base, rem := elems/size, elems%size
	off := 0
	for i := 0; i < size; i++ {
		offs[i] = off
		cnt := base
		if i < rem {
			cnt++
		}
		off += cnt * elem
	}
	offs[size] = n

	acc := make([]byte, n)
	copy(acc, data)
	chunk := func(i int) []byte { return acc[offs[i]:offs[i+1]] }
	mod := func(i int) int { return (i%size + size) % size }
	next := mod(c.rank + 1)
	prev := mod(c.rank - 1)

	// Phase 1: ring reduce-scatter. At step s every rank sends chunk
	// (rank-s) and folds the arriving chunk (rank-s-1) into its accumulator;
	// after P-1 steps rank r owns the fully reduced chunk (r+1).
	for step := 0; step < size-1; step++ {
		sendIdx := mod(c.rank - step)
		recvIdx := mod(c.rank - step - 1)
		req := c.irecvCtx(c.cctx, prev, tagRingReduceScatter)
		if err := c.sendCtx(c.cctx, next, tagRingReduceScatter, chunk(sendIdx)); err != nil {
			return nil, fmt.Errorf("mpi: ring reduce-scatter send: %w", err)
		}
		in, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: ring reduce-scatter recv: %w", err)
		}
		mine := chunk(recvIdx)
		if len(in) != len(mine) {
			return nil, fmt.Errorf("mpi: ring reduce-scatter: chunk %d is %d bytes, want %d (unequal payload lengths?)", recvIdx, len(in), len(mine))
		}
		combined, err := fn(mine, in)
		if err != nil {
			return nil, fmt.Errorf("mpi: ring reduce-scatter combine: %w", err)
		}
		if len(combined) != len(mine) {
			return nil, fmt.Errorf("mpi: ring reduce-scatter: fn is not length-preserving (%d -> %d bytes)", len(mine), len(combined))
		}
		copy(mine, combined)
	}

	// Phase 2: ring allgather of the reduced chunks. At step s every rank
	// forwards chunk (rank+1-s) — complete since phase 1 — and installs the
	// arriving chunk (rank-s).
	for step := 0; step < size-1; step++ {
		sendIdx := mod(c.rank + 1 - step)
		recvIdx := mod(c.rank - step)
		req := c.irecvCtx(c.cctx, prev, tagRingReduceGather)
		if err := c.sendCtx(c.cctx, next, tagRingReduceGather, chunk(sendIdx)); err != nil {
			return nil, fmt.Errorf("mpi: ring allreduce gather send: %w", err)
		}
		in, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: ring allreduce gather recv: %w", err)
		}
		mine := chunk(recvIdx)
		if len(in) != len(mine) {
			return nil, fmt.Errorf("mpi: ring allreduce gather: chunk %d is %d bytes, want %d", recvIdx, len(in), len(mine))
		}
		copy(mine, in)
	}
	return acc, nil
}
