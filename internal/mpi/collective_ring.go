package mpi

import "fmt"

// Bandwidth-optimal ring collectives. The trees (binomial bcast/reduce,
// gather+bcast allgather, reduce+bcast allreduce) finish in O(log P) rounds
// but funnel the whole payload through a root: for an allgather of P blocks
// of n bytes the root touches O(P*n) bytes, the classic root hotspot. The
// rings trade rounds for bandwidth: P-1 steps in which every rank forwards
// exactly one block to its successor, so no rank ever touches more than ~2x
// its share of the data. Where each wins is measured, not assumed: see
// choose (collective_select.go).

// tagCollSizes carries the Bruck size exchange that precedes Allgather;
// the ring tags carry the per-step block traffic of the ring algorithms.
// They live here rather than in the iota block of collective.go so the
// block's comment about distinct ops keeping distinct tags stays exact.
const (
	tagCollSizes = 200 + iota
	tagRingAllgather
	tagRingReduceScatter
	tagRingReduceGather
)

// exchangeSizes gives every rank the payload length of every other rank
// using a Bruck dissemination: ceil(log2 P) rounds of small messages with no
// root hotspot. Round k sends the blocks this rank already knows to rank
// r-2^k and learns 2^k more from rank r+2^k. It is what lets Allgather both
// handle per-rank size variation (gatherv) and make a globally consistent
// algorithm choice.
func (c *Comm) exchangeSizes(mine int) ([]int, error) {
	size := len(c.group)
	if size == 1 {
		return []int{mine}, nil
	}
	// known[i] is the payload length of rank (c.rank+i) % size.
	known := make([]int64, 1, size)
	known[0] = int64(mine)
	for dist := 1; dist < size; dist *= 2 {
		cnt := dist
		if cnt > size-dist {
			cnt = size - dist
		}
		to := (c.rank - dist + size) % size
		from := (c.rank + dist) % size
		req := c.irecvCtx(c.cctx, from, tagCollSizes)
		if err := c.sendCtx(c.cctx, to, tagCollSizes, encodeInts(known[:cnt])); err != nil {
			return nil, fmt.Errorf("mpi: size exchange send: %w", err)
		}
		in, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: size exchange recv: %w", err)
		}
		vals, err := decodeInts(in)
		if err != nil {
			return nil, fmt.Errorf("mpi: size exchange: %w", err)
		}
		if len(vals) != cnt {
			return nil, fmt.Errorf("mpi: size exchange: got %d sizes from rank %d, want %d", len(vals), from, cnt)
		}
		known = append(known, vals...)
	}
	sizes := make([]int, size)
	for i, v := range known {
		if v < 0 {
			return nil, fmt.Errorf("mpi: size exchange: negative size %d", v)
		}
		sizes[(c.rank+i)%size] = int(v)
	}
	return sizes, nil
}

// allgatherRing is the bandwidth-optimal allgather: P-1 steps in which every
// rank forwards one block to its ring successor and receives one from its
// predecessor. sizes (from exchangeSizes) holds every rank's block length,
// used to validate each arriving block. Per-rank traffic is the sum of the
// other ranks' blocks — no rank touches O(P) times its share.
func (c *Comm) allgatherRing(data []byte, sizes []int) ([][]byte, error) {
	size := len(c.group)
	out := make([][]byte, size)
	own := make([]byte, len(data))
	copy(own, data)
	out[c.rank] = own
	next := (c.rank + 1) % size
	prev := (c.rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		sendIdx := ((c.rank-step)%size + size) % size
		recvIdx := ((c.rank-step-1)%size + size) % size
		req := c.irecvCtx(c.cctx, prev, tagRingAllgather)
		if err := c.sendCtx(c.cctx, next, tagRingAllgather, out[sendIdx]); err != nil {
			return nil, fmt.Errorf("mpi: ring allgather send: %w", err)
		}
		in, _, err := req.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: ring allgather recv: %w", err)
		}
		if len(in) != sizes[recvIdx] {
			return nil, fmt.Errorf("mpi: ring allgather: block of rank %d is %d bytes, size exchange promised %d", recvIdx, len(in), sizes[recvIdx])
		}
		out[recvIdx] = in
	}
	return out, nil
}

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
