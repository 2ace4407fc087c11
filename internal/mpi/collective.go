package mpi

import (
	"encoding/binary"
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
	tagGather
	tagScatter
	tagReduce
	tagAlltoall
	tagAllgather
	tagAllreduce
)

// collSpan is one collective op between entry and exit.
type collSpan struct {
	pv    *perf.Rank
	op    perf.CollOp
	start int64
	top   bool
}

// collBegin records entry into a collective op (invocation count, cumulative
// latency, trace events); callers defer the span's end, a value, so timing
// allocates nothing. Composite collectives nest: only the outermost op on
// the rank accumulates count and latency.
func (c *Comm) collBegin(op perf.CollOp) collSpan {
	start, top := c.env.pv.CollEnter(op)
	return collSpan{c.env.pv, op, start, top}
}

func (s collSpan) end() { s.pv.CollExit(s.op, s.start, s.top) }

// checkRoot is the one root validation of each rooted collective, made on
// entry, before any traffic moves or any sub-communicator is built, so a bad
// root fails identically on every rank and no rank hangs on a partner that
// errored out early.
func (c *Comm) checkRoot(op string, root int) error {
	if root < 0 || root >= len(c.group) {
		return fmt.Errorf("%w: %s root %d", ErrRank, op, root)
	}
	return nil
}

// cancelRequests withdraws pending receives so they cannot steal messages
// from a later collective; nil entries are skipped and a request that
// completed while being cancelled is consumed and discarded.
func cancelRequests(reqs []*Request) {
	for _, r := range reqs {
		if r != nil && !r.Cancel() {
			r.Wait()
		}
	}
}

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
	if err := c.checkRoot("bcast", root); err != nil {
		return nil, err
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

// Gather collects each rank's payload at root. At root the result holds one
// entry per communicator rank, in rank order (the root's own entry is a
// copy); other ranks get nil. Payload sizes may differ per rank (gatherv).
// The root posts every receive up front (irecv) so arrivals complete in
// whatever order they land, instead of head-of-line blocking on the
// lowest-numbered slow rank.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	defer c.collBegin(perf.CollGather).end()
	if err := c.checkRoot("gather", root); err != nil {
		return nil, err
	}
	size := len(c.group)
	if c.rank != root {
		if err := c.sendCtx(c.cctx, root, tagGather, data); err != nil {
			return nil, fmt.Errorf("mpi: gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, size)
	own := make([]byte, len(data))
	copy(own, data)
	out[root] = own
	reqs := make([]*Request, size)
	for r := 0; r < size; r++ {
		if r != root {
			reqs[r] = c.irecvCtx(c.cctx, r, tagGather)
		}
	}
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		got, _, err := reqs[r].Wait()
		if err != nil {
			cancelRequests(reqs[r+1:])
			return nil, fmt.Errorf("mpi: gather recv from %d: %w", r, err)
		}
		out[r] = got
	}
	return out, nil
}

// allgather collects each rank's payload at every rank, in rank order — the
// exchange behind Split. Payload sizes may differ per rank (allgatherv); a
// Bruck size exchange first gives every rank the full size vector, so all
// ranks feed choose the same decision size — the largest block — and take the
// same algorithm: the bandwidth-optimal ring in which each rank forwards one
// block per step to its successor (collective_ring.go), or the
// latency-optimal gather-to-0 + framed-broadcast tree.
func (c *Comm) allgather(data []byte) ([][]byte, error) {
	defer c.collBegin(perf.CollAllgather).end()
	size := len(c.group)
	if size == 1 {
		own := make([]byte, len(data))
		copy(own, data)
		return [][]byte{own}, nil
	}
	sizes, err := c.exchangeSizes(len(data))
	if err != nil {
		return nil, err
	}
	maxBlock := 0
	for _, s := range sizes {
		if s > maxBlock {
			maxBlock = s
		}
	}
	if c.choose(perf.CollAllgather, maxBlock, true) == perf.AlgRing {
		return c.allgatherRing(data, sizes)
	}
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var framed []byte
	if c.rank == 0 {
		framed = frameSlices(parts)
	}
	framed, err = c.bcastOn(tagAllgather, 0, framed, nil)
	if err != nil {
		return nil, err
	}
	return unframeSlices(framed)
}

// bcastOn is the binomial-tree broadcast with a caller-chosen internal tag,
// so composite collectives (allgather, Allreduce) do not interleave with
// plain Bcasts issued between their internal phases on other ranks. The
// caller vouches for root (Bcast validates the user's; composites pass
// their own); at root it returns data itself (callers that expose the
// result copy it, see Bcast). A non-root rank receives into dst when it is
// non-nil, which the caller makes exactly the payload's length, else into a
// slice of its own.
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

// Scatter distributes parts[i] from root to rank i. Root passes a slice
// with one entry per rank; other ranks pass nil. Every rank receives its
// part.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	defer c.collBegin(perf.CollScatter).end()
	if err := c.checkRoot("scatter", root); err != nil {
		return nil, err
	}
	size := len(c.group)
	if c.rank == root {
		if len(parts) != size {
			return nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", size, len(parts))
		}
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			if err := c.sendCtx(c.cctx, r, tagScatter, parts[r]); err != nil {
				return nil, fmt.Errorf("mpi: scatter send to %d: %w", r, err)
			}
		}
		own := make([]byte, len(parts[root]))
		copy(own, parts[root])
		return own, nil
	}
	got, _, err := c.recvCtx(c.cctx, root, tagScatter, nil)
	if err != nil {
		return nil, fmt.Errorf("mpi: scatter recv: %w", err)
	}
	return got, nil
}

// Alltoall sends parts[j] to rank j and returns the payloads received from
// every rank, in rank order. All receives are posted before any send starts:
// large payloads ride the rendezvous protocol, whose sends block until the
// receiver matches, so a send-first exchange of big rows would deadlock in a
// cycle of senders (DESIGN.md §12).
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	defer c.collBegin(perf.CollAlltoall).end()
	size := len(c.group)
	if len(parts) != size {
		return nil, fmt.Errorf("mpi: alltoall needs %d parts, got %d", size, len(parts))
	}
	reqs := make([]*Request, size)
	for j := 0; j < size; j++ {
		reqs[j] = c.irecvCtx(c.cctx, j, tagAlltoall)
	}
	for j := 0; j < size; j++ {
		if err := c.sendCtx(c.cctx, j, tagAlltoall, parts[j]); err != nil {
			cancelRequests(reqs) // don't leak PRQ slots
			return nil, fmt.Errorf("mpi: alltoall send to %d: %w", j, err)
		}
	}
	out := make([][]byte, size)
	for j := 0; j < size; j++ {
		got, _, err := reqs[j].Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: alltoall recv from %d: %w", j, err)
		}
		out[j] = got
	}
	return out, nil
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
// sees only whole payloads, which rules the ring out; the typed wrappers
// AllreduceInts/AllreduceFloats declare an element size that unlocks it for
// large payloads.
func (c *Comm) Allreduce(data []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	return c.allreduceWith(data, 0, fn)
}

// allreduceWith combines every rank's payload with fn and delivers the
// result to every rank. elem > 0 declares the payload a sequence of
// elem-byte elements and fn an elementwise, associative, commutative,
// length-preserving combination that accepts any elem-aligned subrange and
// returns acc or a slice of its own, never in (reduceTree); that
// contract is what allows the Rabenseifner ring (collective_ring.go) for
// large payloads and the two-level path (collective_hier.go), which small
// payloads take on a comm that spans hosts, on any host placement. elem == 0
// promises associativity only: no ring, and two-level only where the hosts
// are contiguous rank blocks; otherwise the flat tree (reduce-to-0 then
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
	case perf.AlgRing:
		out, err = c.allreduceRing(data, elem, fn)
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
	c.startRecv(&s.req, c.cctx, peer, tagAllreduce, theirs)
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

// frameSlices packs a list of byte slices into one payload:
// count, then (length, bytes) per entry. nil entries are preserved as
// zero-length.
func frameSlices(parts [][]byte) []byte {
	n := 8
	for _, p := range parts {
		n += 8 + len(p)
	}
	buf := make([]byte, 0, n)
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(parts)))
	buf = append(buf, hdr[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint64(hdr[:], uint64(len(p)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	return buf
}

// unframeSlices is the inverse of frameSlices.
func unframeSlices(buf []byte) ([][]byte, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("mpi: framed payload too short (%d bytes)", len(buf))
	}
	count := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	// Each entry needs at least its 8-byte length header; a count beyond
	// that bound is corruption, not a huge allocation request.
	if count > uint64(len(buf)/8) {
		return nil, fmt.Errorf("mpi: framed payload claims %d entries in %d bytes", count, len(buf))
	}
	parts := make([][]byte, count)
	for i := range parts {
		if len(buf) < 8 {
			return nil, fmt.Errorf("mpi: framed payload truncated at entry %d", i)
		}
		l := binary.LittleEndian.Uint64(buf)
		buf = buf[8:]
		if uint64(len(buf)) < l {
			return nil, fmt.Errorf("mpi: framed payload truncated in entry %d", i)
		}
		parts[i] = append([]byte(nil), buf[:l]...)
		buf = buf[l:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("mpi: %d trailing bytes after framed payload", len(buf))
	}
	return parts, nil
}
