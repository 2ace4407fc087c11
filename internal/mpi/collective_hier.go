package mpi

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"

	"mph/internal/mpi/perf"
)

// Hierarchical (two-level) collectives over the host topology, the way
// MPICH-G2 routed grid-spanning collectives: an intra-host phase on the fast
// local links, a single leader per host carrying the inter-host phase on the
// slow fabric, and a local fan-out of the result. The host-aware
// communicator pair behind them — one sub-communicator per host plus a
// one-leader-per-host communicator — is built lazily, without communication,
// on the first hierarchically routed collective and cached on the Comm.
//
// Large payloads are additionally pipelined in MPH_COLL_SEGMENT-byte
// segments cut on element boundaries: a leader posts every intra-host
// contribution receive up front, so segment k's inter-host exchange overlaps
// segment k+1's intra-host gather, and a broadcast leader fans segment k out
// locally while segment k+1 is still in flight from its tree parent.
//
// Selection precedence (see DESIGN.md "Hierarchical collectives"): the
// hierarchical router runs whenever the communicator spans more than one
// host and MPH_COLL_HIER does not disable it; within each level the flat
// MPH_COLL_RING_THRESHOLD tree/ring selector applies as before. Reduce and
// the opaque whole-payload Allreduce additionally require the hosts to form
// contiguous communicator-rank blocks: regrouping an interleaved placement
// would need a commutative fn, which only the elem > 0 AllreduceWith
// contract guarantees.

// EnvCollHier is the environment variable gating the hierarchical router.
// Parsed by EnvBool: on by default (it only engages when the comm actually
// spans hosts); "0"/"false"/"off"/"no" or a non-positive integer disables
// it, and garbage warns once and keeps the default. Every rank of a job
// must see the same value or algorithm choices diverge.
const EnvCollHier = "MPH_COLL_HIER"

// EnvCollSegment is the environment variable holding the pipelining segment
// size in bytes for hierarchical collectives. Payloads larger than one
// segment move through the two levels segment by segment, overlapping the
// phases. Zero or negative disables segmentation (whole payloads per phase);
// unset or unparsable falls back to DefaultCollSegment. Every rank of a job
// must see the same value: receivers derive the segment layout locally.
const EnvCollSegment = "MPH_COLL_SEGMENT"

// DefaultCollSegment is the default pipelining segment size: large enough to
// amortize per-message cost (well above the eager/rendezvous switch), small
// enough that a 1 MiB broadcast pipelines across 8 segments.
const DefaultCollSegment = 128 << 10

// hierFromEnv parses EnvCollHier once per Env.
func hierFromEnv() bool {
	return EnvBool(EnvCollHier, true)
}

// segmentFromEnv parses EnvCollSegment once per Env.
func segmentFromEnv() int {
	v := os.Getenv(EnvCollSegment)
	if v == "" {
		return DefaultCollSegment
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return DefaultCollSegment
	}
	return n
}

// Tags of the hierarchical collectives, in their own range above the flat
// (0+) and ring (200+) blocks. tagHierFan alone travels on the intra
// sub-communicator's context; the rest share the parent's collective
// context, kept apart from the flat tags by value.
const (
	tagHierBcast = 300 + iota
	tagHierBlock
	tagHierReduceUp
	tagHierResult
	tagHierRootFeed
	tagHierFan
)

// hierComm is the cached hierarchical view of one communicator: the host
// topology derived from the published labels plus, once built, the
// intra-host/leader sub-communicator pair.
type hierComm struct {
	hosts    []string // distinct host labels, in first-appearance (comm rank) order
	hostIdx  []int    // comm rank -> index into hosts
	members  [][]int  // host index -> comm ranks on that host, ascending
	leaderOf []int    // host index -> comm rank of its leader (lowest member)
	myHost   int      // this rank's host index
	// contiguous reports whether every host's ranks form one contiguous
	// comm-rank block; the order-sensitive reductions require it.
	contiguous bool

	intra   *Comm // this host's sub-communicator (nil until built)
	leaders *Comm // one-leader-per-host communicator (nil on non-leaders)
}

// hierInfo derives the communicator's host topology view and caches the
// verdict: nil when hierarchical routing cannot apply (any rank without a
// published host label, or all ranks on one host). The first collective on
// the comm fixes the verdict, so the topology must be published (SetHosts)
// before collectives start — which every transport does during bootstrap.
func (c *Comm) hierInfo() *hierComm {
	if c.hierKnown {
		return c.hier
	}
	c.hierKnown = true
	hostIdx := make([]int, len(c.group))
	index := make(map[string]int)
	var hosts []string
	for r := range c.group {
		label := c.HostOf(r)
		if label == "" {
			return nil
		}
		i, ok := index[label]
		if !ok {
			i = len(hosts)
			index[label] = i
			hosts = append(hosts, label)
		}
		hostIdx[r] = i
	}
	if len(hosts) < 2 {
		return nil
	}
	members := make([][]int, len(hosts))
	for r, i := range hostIdx {
		members[i] = append(members[i], r)
	}
	leaderOf := make([]int, len(hosts))
	contiguous := true
	for i, m := range members {
		leaderOf[i] = m[0]
		if m[len(m)-1]-m[0] != len(m)-1 {
			contiguous = false
		}
	}
	c.hier = &hierComm{
		hosts:      hosts,
		hostIdx:    hostIdx,
		members:    members,
		leaderOf:   leaderOf,
		myHost:     hostIdx[c.rank],
		contiguous: contiguous,
	}
	return c.hier
}

// useHier is the top-level selector: it reports whether collectives on this
// comm should route hierarchically. The verdict is computed from the
// published topology and the per-job environment, both identical on every
// rank, so all members agree without communication.
func (c *Comm) useHier() bool {
	if c.noHier || !c.env.hierEnabled || len(c.group) < 2 {
		return false
	}
	return c.hierInfo() != nil
}

// hierEnsure builds (once) and returns the sub-communicator pair, with no
// communication: hierInfo already gives every rank the whole host table, so
// the intra-host communicator is SplitWith over it (what SplitByHost would
// gather) and the leader communicator a CommFromGroup.
func (c *Comm) hierEnsure() (*hierComm, error) {
	h := c.hierInfo()
	if h == nil {
		return nil, fmt.Errorf("mpi: hierarchical collective without host topology")
	}
	if h.intra != nil {
		return h, nil
	}
	intra, err := c.SplitWith(h.hostIdx, nil)
	if err != nil {
		return nil, fmt.Errorf("mpi: hier intra split: %w", err)
	}
	intra.noHier = true
	h.intra = intra
	if c.rank == h.leaderOf[h.myHost] {
		group := make([]int, len(h.hosts))
		for i, lr := range h.leaderOf {
			group[i] = c.group[lr]
		}
		// Communication-free subset creation: only leaders call it, with a
		// label all leaders derive identically from the parent context.
		leaders, err := CommFromGroup(c, group, fmt.Sprintf("hier:%016x", c.ctx))
		if err != nil {
			return nil, fmt.Errorf("mpi: hier leader comm: %w", err)
		}
		leaders.noHier = true
		h.leaders = leaders
	}
	return h, nil
}

// collPhaseSeg emits a hierarchical-phase begin marker for one pipeline
// segment and returns the matching end hook. With tracing off both are free.
func (c *Comm) collPhaseSeg(op perf.CollOp, phase perf.CollPhase, seg, bytes int) func() {
	tr := c.env.tracer
	if tr == nil {
		return func() {}
	}
	tr.Record(perf.KCollPhaseBegin, int64(op), int64(phase), int64(seg), int64(bytes))
	return func() { tr.Record(perf.KCollPhaseEnd, int64(op), int64(phase), int64(seg), 0) }
}

// segmentBounds cuts an n-byte payload into pipeline segments of about
// segSize bytes, each boundary on an elem-byte element boundary so
// reduction callbacks only ever see aligned subranges. The result is an
// offset vector: segment k covers bounds[k]:bounds[k+1]. segSize <= 0 or
// >= n yields a single segment.
func segmentBounds(n, segSize, elem int) []int {
	if elem <= 0 {
		elem = 1
	}
	if segSize <= 0 || segSize >= n {
		return []int{0, n}
	}
	seg := segSize - segSize%elem
	if seg < elem {
		seg = elem
	}
	bounds := make([]int, 0, n/seg+2)
	for off := 0; off < n; off += seg {
		bounds = append(bounds, off)
	}
	return append(bounds, n)
}

// maxHierTotal bounds the total-length header of a segmented transfer; a
// larger value is wire corruption, not an allocation request.
const maxHierTotal = 1 << 56

// prependTotal frames the first segment of a segmented transfer: an 8-byte
// little-endian total payload length followed by the segment bytes. The
// receiver derives the remaining segment layout from the total and its own
// (job-wide) segment size.
func prependTotal(total int, seg []byte) []byte {
	msg := make([]byte, 8+len(seg))
	binary.LittleEndian.PutUint64(msg, uint64(total))
	copy(msg[8:], seg)
	return msg
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

// bcastHier is the two-level broadcast: the root feeds its host's leader,
// leaders run a per-segment binomial tree over the host indices, and each
// leader fans every segment out to its host the moment it lands — so
// segment k's local fan-out overlaps segment k+1's inter-host hop.
func (c *Comm) bcastHier(root int, data []byte) ([]byte, error) {
	size := len(c.group)
	if root < 0 || root >= size {
		return nil, fmt.Errorf("%w: bcast root %d", ErrRank, root)
	}
	h, err := c.hierEnsure()
	if err != nil {
		return nil, err
	}
	rootHost := h.hostIdx[root]
	rootLeader := h.leaderOf[rootHost]
	myLeader := h.leaderOf[h.myHost]

	if c.rank == root && root != rootLeader {
		// Root off the leader: stream the segments to the co-located leader
		// and keep the caller's payload (Bcast copies at root).
		bounds := segmentBounds(len(data), c.env.collSegment, 1)
		for k := 0; k+1 < len(bounds); k++ {
			msg := data[bounds[k]:bounds[k+1]]
			if k == 0 {
				msg = prependTotal(len(data), msg)
			}
			if err := c.sendCtx(c.cctx, rootLeader, tagHierBcast, msg, nil); err != nil {
				return nil, fmt.Errorf("mpi: hier bcast feed: %w", err)
			}
		}
		return data, nil
	}
	if c.rank != myLeader {
		return c.recvSegmented(myLeader, tagHierBcast)
	}
	return c.bcastHierLeader(h, root, rootHost, rootLeader, data)
}

// recvSegmented receives one prependTotal-framed segmented payload.
func (c *Comm) recvSegmented(src, tag int) ([]byte, error) {
	first, _, err := c.recvCtx(c.cctx, src, tag)
	if err != nil {
		return nil, fmt.Errorf("mpi: hier bcast recv: %w", err)
	}
	if len(first) < 8 {
		return nil, fmt.Errorf("mpi: hier segment header truncated (%d bytes)", len(first))
	}
	t := binary.LittleEndian.Uint64(first)
	if t > maxHierTotal {
		return nil, fmt.Errorf("mpi: hier segment header claims %d bytes", t)
	}
	total := int(t)
	bounds := segmentBounds(total, c.env.collSegment, 1)
	if len(first)-8 != bounds[1]-bounds[0] {
		return nil, fmt.Errorf("mpi: hier segment 0 is %d bytes, want %d", len(first)-8, bounds[1]-bounds[0])
	}
	buf := make([]byte, total)
	copy(buf, first[8:])
	nseg := len(bounds) - 1
	reqs := make([]*Request, nseg)
	for k := 1; k < nseg; k++ {
		reqs[k] = c.irecvCtx(c.cctx, src, tag)
	}
	for k := 1; k < nseg; k++ {
		in, _, err := reqs[k].Wait()
		if err != nil {
			cancelRequests(reqs[k+1:])
			return nil, fmt.Errorf("mpi: hier segment %d recv: %w", k, err)
		}
		if len(in) != bounds[k+1]-bounds[k] {
			cancelRequests(reqs[k+1:])
			return nil, fmt.Errorf("mpi: hier segment %d is %d bytes, want %d", k, len(in), bounds[k+1]-bounds[k])
		}
		copy(buf[bounds[k]:], in)
	}
	return buf, nil
}

// bcastHierLeader runs a host leader's part of the hierarchical broadcast:
// acquire each segment (from the payload at the root host, from the
// co-located root, or from the inter-host tree parent), forward it to the
// child-host leaders, then fan it out to the host's members.
func (c *Comm) bcastHierLeader(h *hierComm, root, rootHost, rootLeader int, data []byte) ([]byte, error) {
	H := len(h.hosts)
	vh := vrank(h.myHost, rootHost, H)

	// Tree position over the host indices, mirroring bcastOn: receivers find
	// their parent at the lowest set bit of vh; children sit below it.
	src := -1
	mask := 1
	for ; mask < H; mask <<= 1 {
		if vh&mask != 0 {
			src = h.leaderOf[rrank(vh-mask, rootHost, H)]
			break
		}
	}
	haveData := c.rank == root // implies root == rootLeader here
	if c.rank == rootLeader && !haveData {
		src = root // fed by the co-located root instead of a tree parent
	}
	var children []int
	for m := mask >> 1; m > 0; m >>= 1 {
		if vh+m < H {
			children = append(children, h.leaderOf[rrank(vh+m, rootHost, H)])
		}
	}
	var fanout []int
	for _, m := range h.members[h.myHost] {
		if m != c.rank && m != root {
			fanout = append(fanout, m)
		}
	}

	var buf []byte
	var bounds []int
	var reqs []*Request
	total := 0
	if haveData {
		total = len(data)
		bounds = segmentBounds(total, c.env.collSegment, 1)
		buf = data
	} else {
		first, _, err := c.recvCtx(c.cctx, src, tagHierBcast)
		if err != nil {
			return nil, fmt.Errorf("mpi: hier bcast recv: %w", err)
		}
		if len(first) < 8 {
			return nil, fmt.Errorf("mpi: hier segment header truncated (%d bytes)", len(first))
		}
		t := binary.LittleEndian.Uint64(first)
		if t > maxHierTotal {
			return nil, fmt.Errorf("mpi: hier segment header claims %d bytes", t)
		}
		total = int(t)
		bounds = segmentBounds(total, c.env.collSegment, 1)
		if len(first)-8 != bounds[1]-bounds[0] {
			return nil, fmt.Errorf("mpi: hier segment 0 is %d bytes, want %d", len(first)-8, bounds[1]-bounds[0])
		}
		buf = make([]byte, total)
		copy(buf, first[8:])
		reqs = make([]*Request, len(bounds)-1)
		for k := 1; k+1 < len(bounds); k++ {
			reqs[k] = c.irecvCtx(c.cctx, src, tagHierBcast)
		}
	}

	for k := 0; k+1 < len(bounds); k++ {
		if k > 0 && !haveData {
			in, _, err := reqs[k].Wait()
			if err != nil {
				cancelRequests(reqs[k+1:])
				return nil, fmt.Errorf("mpi: hier segment %d recv: %w", k, err)
			}
			if len(in) != bounds[k+1]-bounds[k] {
				cancelRequests(reqs[k+1:])
				return nil, fmt.Errorf("mpi: hier segment %d is %d bytes, want %d", k, len(in), bounds[k+1]-bounds[k])
			}
			copy(buf[bounds[k]:], in)
		}
		seg := buf[bounds[k]:bounds[k+1]]
		msg := seg
		if k == 0 {
			msg = prependTotal(total, seg)
		}
		if len(children) > 0 {
			end := c.collPhaseSeg(perf.CollBcast, perf.CollPhaseInter, k, len(seg))
			for _, dst := range children {
				if err := c.sendCtx(c.cctx, dst, tagHierBcast, msg, nil); err != nil {
					cancelRequests(reqs)
					return nil, fmt.Errorf("mpi: hier bcast forward: %w", err)
				}
			}
			end()
		}
		if len(fanout) > 0 {
			end := c.collPhaseSeg(perf.CollBcast, perf.CollPhaseFanout, k, len(seg))
			for _, dst := range fanout {
				if err := c.sendCtx(c.cctx, dst, tagHierBcast, msg, nil); err != nil {
					cancelRequests(reqs)
					return nil, fmt.Errorf("mpi: hier bcast fan-out: %w", err)
				}
			}
			end()
		}
	}
	return buf, nil
}

// allgatherHier is the two-level allgather: each host gathers at its leader,
// leaders exchange framed host blocks directly (receives posted first, so
// large blocks riding the rendezvous protocol cannot deadlock in a send
// cycle), and each block is fanned out over the intra tree the moment it
// lands — while the fan of block j runs, blocks j+1.. keep arriving.
func (c *Comm) allgatherHier(data []byte, sizes []int) ([][]byte, error) {
	h, err := c.hierEnsure()
	if err != nil {
		return nil, err
	}
	H := len(h.hosts)

	endIntra := c.collPhaseSeg(perf.CollAllgather, perf.CollPhaseIntra, 0, len(data))
	parts, err := h.intra.Gather(0, data)
	endIntra()
	if err != nil {
		return nil, fmt.Errorf("mpi: hier allgather intra gather: %w", err)
	}

	out := make([][]byte, len(c.group))
	if c.rank != h.leaderOf[h.myHost] {
		for j := 0; j < H; j++ {
			blk, err := h.intra.bcastOn(tagHierFan, 0, nil)
			if err != nil {
				return nil, fmt.Errorf("mpi: hier allgather fan-out of host %d: %w", j, err)
			}
			if err := installHostBlock(out, h.members[j], blk, sizes); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	own := frameSlices(parts)
	reqs := make([]*Request, H)
	for j := 0; j < H; j++ {
		if j != h.myHost {
			reqs[j] = c.irecvCtx(c.cctx, h.leaderOf[j], tagHierBlock)
		}
	}
	endInter := c.collPhaseSeg(perf.CollAllgather, perf.CollPhaseInter, 0, len(own))
	for j := 0; j < H; j++ {
		if j == h.myHost {
			continue
		}
		if err := c.sendCtx(c.cctx, h.leaderOf[j], tagHierBlock, own, nil); err != nil {
			cancelRequests(reqs)
			endInter()
			return nil, fmt.Errorf("mpi: hier allgather block send: %w", err)
		}
	}
	endInter()
	for j := 0; j < H; j++ {
		blk := own
		if j != h.myHost {
			in, _, err := reqs[j].Wait()
			if err != nil {
				cancelRequests(reqs[j+1:])
				return nil, fmt.Errorf("mpi: hier allgather block from host %d: %w", j, err)
			}
			blk = in
		}
		endFan := c.collPhaseSeg(perf.CollAllgather, perf.CollPhaseFanout, j, len(blk))
		fb, err := h.intra.bcastOn(tagHierFan, 0, blk)
		endFan()
		if err != nil {
			cancelRequests(reqs[j+1:])
			return nil, fmt.Errorf("mpi: hier allgather fan-out of host %d: %w", j, err)
		}
		if err := installHostBlock(out, h.members[j], fb, sizes); err != nil {
			cancelRequests(reqs[j+1:])
			return nil, err
		}
	}
	return out, nil
}

// installHostBlock unpacks one host's framed block into the rank-indexed
// allgather result, validating each entry against the size exchange.
func installHostBlock(out [][]byte, members []int, framed []byte, sizes []int) error {
	parts, err := unframeSlices(framed)
	if err != nil {
		return fmt.Errorf("mpi: hier allgather host block: %w", err)
	}
	if len(parts) != len(members) {
		return fmt.Errorf("mpi: hier allgather host block has %d entries, want %d", len(parts), len(members))
	}
	for i, r := range members {
		if len(parts[i]) != sizes[r] {
			return fmt.Errorf("mpi: hier allgather: block of rank %d is %d bytes, size exchange promised %d", r, len(parts[i]), sizes[r])
		}
		out[r] = parts[i]
	}
	return nil
}

// reduceHier is the two-level reduce: members contribute to their host
// leader, which folds them in ascending member order, leaders reduce over
// the leader communicator (host-index order, rooted at the root's host), and
// the root-host leader hands the result to a non-leader root. The selector
// only routes here for contiguous host blocks, where the regrouped fold
// order stays within the flat associativity contract.
func (c *Comm) reduceHier(root int, data []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	size := len(c.group)
	if root < 0 || root >= size {
		return nil, fmt.Errorf("%w: reduce root %d", ErrRank, root)
	}
	h, err := c.hierEnsure()
	if err != nil {
		return nil, err
	}
	rootLeader := h.leaderOf[h.hostIdx[root]]
	myLeader := h.leaderOf[h.myHost]

	if c.rank != myLeader {
		if err := c.sendCtx(c.cctx, myLeader, tagHierReduceUp, data, nil); err != nil {
			return nil, fmt.Errorf("mpi: hier reduce send: %w", err)
		}
		if c.rank != root {
			return nil, nil
		}
		res, _, err := c.recvCtx(c.cctx, rootLeader, tagHierRootFeed)
		if err != nil {
			return nil, fmt.Errorf("mpi: hier reduce result: %w", err)
		}
		return res, nil
	}

	members := h.members[h.myHost]
	endIntra := c.collPhaseSeg(perf.CollReduce, perf.CollPhaseIntra, 0, len(data))
	reqs := make([]*Request, len(members))
	for i, m := range members {
		if m != c.rank {
			reqs[i] = c.irecvCtx(c.cctx, m, tagHierReduceUp)
		}
	}
	acc := make([]byte, len(data))
	copy(acc, data)
	for i, m := range members {
		if m == c.rank {
			continue
		}
		in, _, err := reqs[i].Wait()
		if err != nil {
			cancelRequests(reqs[i+1:])
			endIntra()
			return nil, fmt.Errorf("mpi: hier reduce recv from %d: %w", m, err)
		}
		acc, err = fn(acc, in)
		if err != nil {
			cancelRequests(reqs[i+1:])
			endIntra()
			return nil, fmt.Errorf("mpi: hier reduce combine: %w", err)
		}
	}
	endIntra()

	endInter := c.collPhaseSeg(perf.CollReduce, perf.CollPhaseInter, 0, len(acc))
	res, err := h.leaders.Reduce(h.hostIdx[root], acc, fn)
	endInter()
	if err != nil {
		return nil, fmt.Errorf("mpi: hier reduce inter: %w", err)
	}
	if c.rank != rootLeader {
		return nil, nil
	}
	if root == rootLeader {
		return res, nil
	}
	if err := c.sendCtx(c.cctx, root, tagHierRootFeed, res, nil); err != nil {
		return nil, fmt.Errorf("mpi: hier reduce deliver: %w", err)
	}
	return nil, nil
}

// allreduceHier is the two-level allreduce. elem > 0 pipelines the payload
// in element-aligned segments: the leader posts every (member, segment)
// contribution receive up front — per-sender non-overtaking order maps
// arrival k to segment k — so members' segment k+1 contributions land while
// the leader is still in segment k's inter-host exchange, and members post
// every result receive before contributing, so the leader's fan-out sends
// always find a match. elem == 0 (opaque fn, contiguous hosts only) takes
// the unsegmented whole-payload shape, which — like the flat tree — places
// no length-preservation demand on fn.
func (c *Comm) allreduceHier(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	h, err := c.hierEnsure()
	if err != nil {
		return nil, err
	}
	if elem <= 0 {
		return c.allreduceHierOpaque(h, data, fn)
	}
	myLeader := h.leaderOf[h.myHost]
	n := len(data)
	bounds := segmentBounds(n, c.env.collSegment, elem)
	nseg := len(bounds) - 1
	out := make([]byte, n)
	copy(out, data)

	if c.rank != myLeader {
		res := make([]*Request, nseg)
		for k := 0; k < nseg; k++ {
			res[k] = c.irecvCtx(c.cctx, myLeader, tagHierResult)
		}
		for k := 0; k < nseg; k++ {
			if err := c.sendCtx(c.cctx, myLeader, tagHierReduceUp, data[bounds[k]:bounds[k+1]], nil); err != nil {
				cancelRequests(res)
				return nil, fmt.Errorf("mpi: hier allreduce send: %w", err)
			}
		}
		for k := 0; k < nseg; k++ {
			in, _, err := res[k].Wait()
			if err != nil {
				cancelRequests(res[k+1:])
				return nil, fmt.Errorf("mpi: hier allreduce result: %w", err)
			}
			if len(in) != bounds[k+1]-bounds[k] {
				cancelRequests(res[k+1:])
				return nil, fmt.Errorf("mpi: hier allreduce segment %d is %d bytes, want %d", k, len(in), bounds[k+1]-bounds[k])
			}
			copy(out[bounds[k]:], in)
		}
		return out, nil
	}

	members := h.members[h.myHost]
	reqs := make([][]*Request, nseg)
	for k := range reqs {
		reqs[k] = make([]*Request, len(members))
	}
	for i, m := range members {
		if m == c.rank {
			continue
		}
		for k := 0; k < nseg; k++ {
			reqs[k][i] = c.irecvCtx(c.cctx, m, tagHierReduceUp)
		}
	}
	// fail withdraws every contribution receive not yet waited on.
	fail := func(k, i int) {
		if k < nseg {
			cancelRequests(reqs[k][i:])
			k++
		}
		for ; k < nseg; k++ {
			cancelRequests(reqs[k])
		}
	}
	for k := 0; k < nseg; k++ {
		seg := out[bounds[k]:bounds[k+1]]
		endIntra := c.collPhaseSeg(perf.CollAllreduce, perf.CollPhaseIntra, k, len(seg))
		for i, m := range members {
			if m == c.rank {
				continue
			}
			in, _, err := reqs[k][i].Wait()
			if err != nil {
				fail(k, i+1)
				endIntra()
				return nil, fmt.Errorf("mpi: hier allreduce recv from %d: %w", m, err)
			}
			if len(in) != len(seg) {
				fail(k, i+1)
				endIntra()
				return nil, fmt.Errorf("mpi: hier allreduce: segment %d from rank %d is %d bytes, want %d (unequal payload lengths?)", k, m, len(in), len(seg))
			}
			combined, err := fn(seg, in)
			if err != nil {
				fail(k, i+1)
				endIntra()
				return nil, fmt.Errorf("mpi: hier allreduce combine: %w", err)
			}
			if len(combined) != len(seg) {
				fail(k, i+1)
				endIntra()
				return nil, fmt.Errorf("mpi: hier allreduce: fn is not length-preserving (%d -> %d bytes)", len(seg), len(combined))
			}
			copy(seg, combined)
		}
		endIntra()

		endInter := c.collPhaseSeg(perf.CollAllreduce, perf.CollPhaseInter, k, len(seg))
		var red []byte
		if elem > 0 {
			red, err = h.leaders.AllreduceWith(seg, elem, fn)
		} else {
			red, err = h.leaders.Allreduce(seg, fn)
		}
		endInter()
		if err != nil {
			fail(k+1, 0)
			return nil, fmt.Errorf("mpi: hier allreduce inter: %w", err)
		}
		if len(red) != len(seg) {
			fail(k+1, 0)
			return nil, fmt.Errorf("mpi: hier allreduce: inter phase returned %d bytes, want %d", len(red), len(seg))
		}
		copy(seg, red)

		endFan := c.collPhaseSeg(perf.CollAllreduce, perf.CollPhaseFanout, k, len(seg))
		for _, m := range members {
			if m == c.rank {
				continue
			}
			if err := c.sendCtx(c.cctx, m, tagHierResult, seg, nil); err != nil {
				fail(k+1, 0)
				endFan()
				return nil, fmt.Errorf("mpi: hier allreduce fan-out: %w", err)
			}
		}
		endFan()
	}
	return out, nil
}

// allreduceHierOpaque is the whole-payload two-level allreduce for opaque
// fns (elem == 0): members contribute to their host leader, which folds in
// ascending member order, leaders allreduce over the leader communicator,
// and each leader fans the result back out. No segmentation and no in-place
// combining, so fn may change the payload length exactly as the flat
// reduce-to-0 + broadcast path allows. The selector only routes here for
// contiguous host blocks, which keep the regrouped fold order within the
// associativity contract.
func (c *Comm) allreduceHierOpaque(h *hierComm, data []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	myLeader := h.leaderOf[h.myHost]

	if c.rank != myLeader {
		// Result posted before the contribution is sent, so the leader's
		// (possibly rendezvous) fan-out send always finds a match.
		res := c.irecvCtx(c.cctx, myLeader, tagHierResult)
		if err := c.sendCtx(c.cctx, myLeader, tagHierReduceUp, data, nil); err != nil {
			cancelRequests([]*Request{res})
			return nil, fmt.Errorf("mpi: hier allreduce send: %w", err)
		}
		out, _, err := res.Wait()
		if err != nil {
			return nil, fmt.Errorf("mpi: hier allreduce result: %w", err)
		}
		return out, nil
	}

	members := h.members[h.myHost]
	endIntra := c.collPhaseSeg(perf.CollAllreduce, perf.CollPhaseIntra, 0, len(data))
	reqs := make([]*Request, len(members))
	for i, m := range members {
		if m != c.rank {
			reqs[i] = c.irecvCtx(c.cctx, m, tagHierReduceUp)
		}
	}
	acc := make([]byte, len(data))
	copy(acc, data)
	for i, m := range members {
		if m == c.rank {
			continue
		}
		in, _, err := reqs[i].Wait()
		if err != nil {
			cancelRequests(reqs[i+1:])
			endIntra()
			return nil, fmt.Errorf("mpi: hier allreduce recv from %d: %w", m, err)
		}
		acc, err = fn(acc, in)
		if err != nil {
			cancelRequests(reqs[i+1:])
			endIntra()
			return nil, fmt.Errorf("mpi: hier allreduce combine: %w", err)
		}
	}
	endIntra()

	endInter := c.collPhaseSeg(perf.CollAllreduce, perf.CollPhaseInter, 0, len(acc))
	red, err := h.leaders.Allreduce(acc, fn)
	endInter()
	if err != nil {
		return nil, fmt.Errorf("mpi: hier allreduce inter: %w", err)
	}

	endFan := c.collPhaseSeg(perf.CollAllreduce, perf.CollPhaseFanout, 0, len(red))
	for _, m := range members {
		if m == c.rank {
			continue
		}
		if err := c.sendCtx(c.cctx, m, tagHierResult, red, nil); err != nil {
			endFan()
			return nil, fmt.Errorf("mpi: hier allreduce fan-out: %w", err)
		}
	}
	endFan()
	return red, nil
}
