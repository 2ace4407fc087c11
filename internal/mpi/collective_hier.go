package mpi

import (
	"fmt"

	"mph/internal/mpi/perf"
)

// Hierarchical (two-level) collectives over the host topology, built the way
// MPICH-G2 built its grid-spanning collectives: the flat algorithms run on
// per-level sub-communicators. Each host's ranks form an intra communicator
// whose rank 0 is the host's leader, the leaders form a second communicator
// indexed by host, and the two operations here — Bcast and Allreduce, the two
// world collectives of the MPH handshake — are compositions of flat
// primitives over that pair: an intra phase on the fast local links, one
// leader per host carrying the inter-host phase, a local fan-out, so no more
// than one rank per host ever talks across the slow fabric. Every phase runs
// on a sub-communicator's own context under the flat tags. The pair is built
// lazily, without communication, on the first hierarchically routed
// collective and cached on the Comm. choose (collective_select.go) decides
// when these run (DESIGN.md §10).
//
// Fold order of the allreduce: binomial within a host (intra rank order),
// then host-index order across the leaders. For hosts that are contiguous
// communicator-rank blocks that is a re-bracketing of the flat tree's rank
// order, which associativity alone permits; any other placement regroups
// operands and needs a commutative fn, which choose requires before routing
// such a comm here.

// hierComm is the cached hierarchical view of one communicator: the host
// topology derived from the published labels plus, once built, the
// intra-host/leader sub-communicator pair.
type hierComm struct {
	hostIdx []int   // comm rank -> host index, hosts numbered in first-appearance order
	members [][]int // host index -> comm ranks on that host, ascending; the first is its leader
	myHost  int     // this rank's host index
	// contiguous reports whether every host's ranks form one contiguous
	// comm-rank block; the order-sensitive reductions require it.
	contiguous bool

	intra   *Comm // this host's sub-communicator (nil until built), leader at rank 0
	leaders *Comm // one-leader-per-host communicator, rank = host index (nil on non-leaders)
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
	var members [][]int
	for r := range c.group {
		label := c.HostOf(r)
		if label == "" {
			return nil
		}
		i, ok := index[label]
		if !ok {
			i = len(members)
			index[label] = i
			members = append(members, nil)
		}
		hostIdx[r] = i
		members[i] = append(members[i], r)
	}
	if len(members) < 2 {
		return nil
	}
	contiguous := true
	for _, m := range members {
		if m[len(m)-1]-m[0] != len(m)-1 {
			contiguous = false
		}
	}
	c.hier = &hierComm{
		hostIdx:    hostIdx,
		members:    members,
		myHost:     hostIdx[c.rank],
		contiguous: contiguous,
	}
	return c.hier
}

// hierEnsure builds (once) and returns the sub-communicator pair, with no
// communication: hierInfo already gives every rank the whole host table, so
// the intra-host communicator is SplitWith over it and the leader
// communicator a CommFromGroup.
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
	if c.rank == h.members[h.myHost][0] {
		group := make([]int, len(h.members))
		for i, m := range h.members {
			group[i] = c.group[m[0]]
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

// hierPhase is one phase of a two-level collective between its begin and
// end events.
type hierPhase struct {
	span  perf.Span
	op    perf.CollOp
	phase perf.CollPhase
}

// collPhase opens one phase of a two-level collective: it records the
// phase's begin event, with tracing off for free.
func (c *Comm) collPhase(op perf.CollOp, phase perf.CollPhase, bytes int) hierPhase {
	return hierPhase{c.env.tracer.Begin(int64(op), int64(phase), int64(bytes)), op, phase}
}

// end closes the phase and names it in err, if there was one.
func (p hierPhase) end(err error) error {
	p.span.End()
	if err != nil {
		return fmt.Errorf("mpi: two-level %s phase: %w", perf.SpanName(int64(p.op), int64(p.phase)), err)
	}
	return nil
}

// bcastHier is the two-level broadcast: the leaders pass the payload on over
// their tree, rooted at the root's host, and every host hears it from its
// leader over the intra tree. The leaders go first so the slow link is never
// queued behind local sends; only when the root is not its host's leader
// does that host run its intra tree first, rooted at the root, to get the
// payload to the leader.
func (c *Comm) bcastHier(root int, data []byte) ([]byte, error) {
	h, err := c.hierEnsure()
	if err != nil {
		return nil, err
	}
	rootHost := h.hostIdx[root]
	intraRoot := 0 // the root's intra rank: intra ranks follow parent rank order
	for h.members[rootHost][intraRoot] != root {
		intraRoot++
	}
	feedLeader := h.myHost == rootHost && intraRoot != 0
	buf := data
	if feedLeader {
		ph := c.collPhase(perf.CollBcast, perf.CollPhaseIntra, len(buf))
		buf, err = h.intra.bcastOn(tagBcast, intraRoot, buf, nil)
		if err = ph.end(err); err != nil {
			return nil, err
		}
	}
	if h.leaders != nil {
		ph := c.collPhase(perf.CollBcast, perf.CollPhaseInter, len(buf))
		buf, err = h.leaders.bcastOn(tagBcast, rootHost, buf, nil)
		if err = ph.end(err); err != nil {
			return nil, err
		}
	}
	if !feedLeader {
		ph := c.collPhase(perf.CollBcast, perf.CollPhaseFanout, len(buf))
		buf, err = h.intra.bcastOn(tagBcast, 0, buf, nil)
		if err = ph.end(err); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// allreduceHier is the two-level allreduce, for opaque (elem == 0) and
// element-wise fns alike: each host reduces to its leader, the leaders
// allreduce among themselves — choose runs again there and, below the size
// at which it stops routing here, picks the tree (the pair on two hosts) —
// and each leader broadcasts the result to its host.
func (c *Comm) allreduceHier(data []byte, elem int, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	h, err := c.hierEnsure()
	if err != nil {
		return nil, err
	}
	acc, in := h.intra.scratch.buffers(data, elem)
	ph := c.collPhase(perf.CollAllreduce, perf.CollPhaseIntra, len(data))
	acc, err = h.intra.reduceTree(0, acc, in, fn)
	if err = ph.end(err); err != nil {
		return nil, err
	}
	if h.leaders != nil {
		ph := c.collPhase(perf.CollAllreduce, perf.CollPhaseInter, len(acc))
		acc, err = h.leaders.allreduceWith(acc, elem, fn)
		if err = ph.end(err); err != nil {
			return nil, err
		}
	}
	ph = c.collPhase(perf.CollAllreduce, perf.CollPhaseFanout, len(acc))
	acc, err = h.intra.bcastOn(tagAllreduce, 0, acc, nil)
	if err = ph.end(err); err != nil {
		return nil, err
	}
	return acc, nil
}
