package mpi

import (
	"fmt"

	"mph/internal/mpi/perf"
)

// Internal tags for collective plumbing. Collectives run on a dedicated
// context (cctx), so these never collide with user tags. Distinct ops use
// distinct tags; repeated ops of one kind are kept straight by the
// non-overtaking per-sender order guarantee.
const (
	tagBarrier = iota
	tagBcast
	tagReduce
	tagAllreduce
)

// collSpan is one collective op between entry and exit.
type collSpan struct {
	pv    *perf.Rank
	op    perf.CollOp
	start int64
}

// collBegin records entry into a collective op (invocation count, cumulative
// latency, trace events); callers defer the span's end, a value, so timing
// allocates nothing. No collective calls another that records a span, so
// every span is a whole op.
func (c *Comm) collBegin(op perf.CollOp) collSpan {
	return collSpan{c.env.pv, op, c.env.pv.CollEnter(op)}
}

func (s collSpan) end() { s.pv.CollExit(s.op, s.start) }

// Barrier blocks until every rank of the communicator has entered it.
// It uses the dissemination algorithm: ceil(log2 P) rounds of paired
// send/receive, with no root hotspot.
func (c *Comm) Barrier() error {
	defer c.collBegin(perf.CollBarrier).end()
	size := len(c.group)
	for dist := 1; dist < size; dist *= 2 {
		to := (c.rank + dist) % size
		from := (c.rank - dist + size) % size
		req := c.irecvCtx(c.cctx, from, tagBarrier)
		if err := c.sendCtx(c.cctx, to, tagBarrier, nil); err != nil {
			return fmt.Errorf("mpi: barrier send: %w", err)
		}
		if _, _, err := req.Wait(); err != nil {
			return fmt.Errorf("mpi: barrier recv: %w", err)
		}
	}
	return nil
}

// vrank maps a communicator rank into the virtual ring rooted at root, so
// binomial-tree algorithms can assume root 0.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// rrank is the inverse of vrank.
func rrank(vr, root, size int) int { return (vr + root) % size }

// Bcast broadcasts data from root to every rank, over the algorithm choose
// picks: the two-level host-aware broadcast (collective_hier.go) or the flat
// binomial tree. The root passes the payload; other ranks pass nil. Every
// rank receives the broadcast value as the return. The returned slice is a
// private copy on every rank, root included: mutating it never changes the
// caller's input, and mutating the input after Bcast never changes the
// result.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	defer c.collBegin(perf.CollBcast).end()
	// The root is checked before any traffic moves, so a bad one fails
	// identically on every rank and no rank hangs on a partner that errored
	// out early.
	if root < 0 || root >= len(c.group) {
		return nil, fmt.Errorf("%w: bcast root %d", ErrRank, root)
	}
	var buf []byte
	var err error
	// Only the root knows the payload length, so size cannot steer the choice.
	if c.choose(perf.CollBcast, 0, true) == perf.AlgHier {
		buf, err = c.bcastHier(root, data)
	} else {
		buf, err = c.bcastOn(tagBcast, root, data, nil)
	}
	if err != nil {
		return nil, err
	}
	if c.rank == root {
		// Non-root ranks get a fresh buffer from the transport; copy at root
		// so the aliasing behaviour is identical on every rank.
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	}
	return buf, nil
}

// bcastOn is the binomial-tree broadcast with a caller-chosen internal tag,
// so Allreduce's broadcast phase does not interleave with plain Bcasts
// issued between its phases on other ranks. The caller vouches for root
// (Bcast validates the user's; Allreduce passes its own); at root it
// returns data itself (callers that expose the result copy it, see Bcast).
// A non-root rank receives into dst when it is non-nil, which the caller
// makes exactly the payload's length, else into a slice of its own.
func (c *Comm) bcastOn(tag, root int, data, dst []byte) ([]byte, error) {
	size := len(c.group)
	vr := vrank(c.rank, root, size)
	buf := data
	mask := 1
	for ; mask < size; mask <<= 1 {
		if vr&mask != 0 {
			src := rrank(vr-mask, root, size)
			got, _, err := c.recvCtx(c.cctx, src, tag, dst)
			if err != nil {
				return nil, fmt.Errorf("mpi: bcast recv: %w", err)
			}
			buf = got
			break
		}
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vr+mask < size {
			dst := rrank(vr+mask, root, size)
			if err := c.sendCtx(c.cctx, dst, tag, buf); err != nil {
				return nil, fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
	}
	return buf, nil
}

// reduceTree is the binomial-tree reduce: it folds every rank's operand,
// which each rank passes in acc, into root's acc with fn, a binary
// associative operation over encoded payloads that receives (accumulated,
// incoming), may write its result over the accumulated side and must not
// retain its arguments; root returns the result, other ranks nil. acc is
// written over, on every rank. Each child's payload lands in in when it is
// non-nil — an elementwise fn promises a child's length is len(acc), and
// must then not return in, which the next child's payload overwrites — else
// in a slice of its own. Rooted at 0 it folds in rank order; any other root
// rotates the order to start there. The caller vouches for root. It is the
// first half of the flat allreduce and the intra-host phase of the
// two-level one.
func (c *Comm) reduceTree(root int, acc, in []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	size := len(c.group)
	vr := vrank(c.rank, root, size)
	for mask := 1; mask < size; mask <<= 1 {
		if vr&mask == 0 {
			peer := vr | mask
			if peer < size {
				got, _, err := c.recvCtx(c.cctx, rrank(peer, root, size), tagReduce, in)
				if err != nil {
					return nil, fmt.Errorf("mpi: reduce recv: %w", err)
				}
				if acc, err = fn(acc, got); err != nil {
					return nil, fmt.Errorf("mpi: reduce combine: %w", err)
				}
			}
		} else {
			parent := vr &^ mask
			if err := c.sendCtx(c.cctx, rrank(parent, root, size), tagReduce, acc); err != nil {
				return nil, fmt.Errorf("mpi: reduce send: %w", err)
			}
			return nil, nil
		}
	}
	return acc, nil
}

// Allreduce combines every rank's payload with fn, a binary associative
// operation over encoded payloads, and delivers the result to every rank. fn
// sees only whole payloads; the typed wrappers AllreduceInts/AllreduceFloats
// declare an element size, which lets the two-level path regroup operands
// on any host placement.
func (c *Comm) Allreduce(data []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	return c.allreduceWith(data, 0, fn)
}

// allreduceWith combines every rank's payload with fn and delivers the
// result to every rank. elem > 0 declares the payload a sequence of
// elem-byte elements and fn elementwise: associative, commutative,
// length-preserving, returning acc or a slice of its own, never in
// (reduceTree). That contract is what lets another rank's payload be
// received into a scratch buffer of the caller's length and lets the
// two-level path (collective_hier.go), which small payloads take on a comm
// that spans hosts, regroup operands on any host placement. elem == 0
// promises associativity only: two-level only where the hosts are
// contiguous rank blocks; otherwise the flat tree (reduce-to-0 then
// broadcast). Every rank must pass the same payload length — the standard
// reduction contract — which is also what keeps choose's verdict identical
// on all ranks.
func (c *Comm) allreduceWith(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	out, scratch, err := c.allreduce(data, elem, fn)
	if scratch && err == nil {
		out = append([]byte(nil), out...)
	}
	return out, err
}

// allreduce is allreduceWith, except that the result may lie in the
// communicator's scratch (scratch == true), good until the next collective
// on c: the typed wrappers decode it from there, allreduceWith copies it out.
func (c *Comm) allreduce(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) (out []byte, scratch bool, err error) {
	defer c.collBegin(perf.CollAllreduce).end()
	if elem <= 0 || len(data)%elem != 0 {
		elem = 0 // not the elementwise contract: treat fn as opaque
	}
	switch c.choose(perf.CollAllreduce, len(data), elem > 0) {
	case algPair:
		out, err = c.allreducePair(data, elem, fn)
		return out, true, err
	case perf.AlgHier:
		out, err = c.allreduceHier(data, elem, fn)
	default:
		out, err = c.allreduceTree(data, elem, fn)
		return out, true, err
	}
	return out, false, err
}

// scratchMax is the largest payload whose buffers a communicator keeps
// between allreduces; a larger one works in buffers of its own.
const scratchMax = 64 << 10

// allreduceScratch is what the pair and tree allreduces work in, kept on the
// Comm: collectives on one communicator run one at a time, so one set
// serves all.
type allreduceScratch struct {
	req     Request // the pair's receive
	acc, in []byte
}

// buffers returns the accumulator, holding a copy of data, and the buffer
// another rank's payload is received into; in is nil unless elem > 0, since
// only an elementwise fn promises the other payload's length. Both are the
// communicator's up to scratchMax bytes, the call's own above.
func (s *allreduceScratch) buffers(data []byte, elem int) (acc, in []byte) {
	n := len(data)
	if cap(s.acc) < n {
		s.acc, s.in = make([]byte, n), make([]byte, n)
	}
	acc, in = s.acc[:n], s.in[:n]
	if n > scratchMax {
		s.acc, s.in = nil, nil // this call's own, not the communicator's
	}
	copy(acc, data)
	if elem == 0 {
		in = nil
	}
	return acc, in
}

// allreduceTree is the flat allreduce of three or more ranks (and of one):
// a reduce to rank 0, then a broadcast from it. It works in the
// communicator's scratch: the accumulator, each child's payload and, for an
// elementwise fn, the broadcast result at every rank but 0 — where the
// accumulator is free again, its payload sent up the tree.
func (c *Comm) allreduceTree(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	acc, in := c.scratch.buffers(data, elem)
	out, err := c.reduceTree(0, acc, in, fn)
	if err != nil {
		return nil, err
	}
	if in == nil {
		acc = nil // an opaque fn's result has no length known beforehand
	}
	return c.bcastOn(tagAllreduce, 0, out, acc)
}

// allreducePair is the allreduce of a two-rank communicator: one exchange.
// Each rank posts the receive of the other's payload, sends its own, and
// both compute fn(rank 0's, rank 1's) — what the flat tree computes at rank
// 0 and then broadcasts, so the result is bit-identical on both, also for a
// non-commutative fn: the same two messages, one hop on the critical path
// instead of two. fn gets scratch copies, as in the tree; an opaque fn's
// other payload arrives in a slice of its own.
func (c *Comm) allreducePair(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	s, peer := &c.scratch, 1-c.rank
	mine, theirs := s.buffers(data, elem)
	c.startRecv(&s.req, c.cctx, peer, tagAllreduce, sink{dst: theirs})
	if err := c.sendCtx(c.cctx, peer, tagAllreduce, data); err != nil {
		if !s.req.Cancel() {
			s.req.Wait()
		}
		return nil, fmt.Errorf("mpi: allreduce send: %w", err)
	}
	theirs, _, err := s.req.Wait()
	if err != nil {
		return nil, fmt.Errorf("mpi: allreduce recv: %w", err)
	}
	acc, in := mine, theirs
	if c.rank == 1 {
		acc, in = theirs, mine
	}
	out, err := fn(acc, in)
	if err != nil {
		return nil, fmt.Errorf("mpi: allreduce combine: %w", err)
	}
	return out, nil
}
