package mpi

import (
	"fmt"
	"sort"

	"mph/internal/mpi/perf"
)

// worldContext is the context of every world communicator. Child contexts
// are derived from it; see deriveContext.
const worldContext uint64 = 1

// Comm is a communicator: an ordered group of world ranks plus an isolated
// message context. A Comm value belongs to exactly one rank (its methods are
// not safe for concurrent use by multiple goroutines posing as one rank, but
// distinct ranks' Comms operate concurrently by design).
type Comm struct {
	env   *Env
	ctx   uint64 // user point-to-point context
	cctx  uint64 // internal collective context
	rank  int    // this rank within the communicator
	group []int  // communicator rank -> world rank
	seq   uint64 // per-comm derivation counter, advanced in lockstep by collective creation ops

	// Hierarchical-collective state (collective_hier.go). hier caches the
	// host topology and, once built, the intra-host/leader sub-communicator
	// pair; hierKnown marks the verdict (hier stays nil when the comm cannot
	// route hierarchically). noHier pins the sub-communicators themselves to
	// the flat algorithms.
	hier      *hierComm
	hierKnown bool
	noHier    bool

	scratch allreduceScratch // the pair and tree allreduces' request and buffers (collective.go)
}

// WorldComm returns the world communicator of an environment. It is how a
// transport-bootstrapped process (tcpnet.Init) obtains its MPI_COMM_WORLD;
// in-process code should prefer World.Comm or World.Run.
func WorldComm(env *Env) *Comm { return worldComm(env) }

// worldComm builds the world communicator for env's rank.
func worldComm(env *Env) *Comm {
	group := make([]int, env.worldSize)
	for i := range group {
		group[i] = i
	}
	return newComm(env, worldContext, env.worldRank, group)
}

func newComm(env *Env, ctx uint64, rank int, group []int) *Comm {
	c := &Comm{
		env:   env,
		ctx:   ctx,
		cctx:  deriveContext(ctx, 0, "collective"),
		rank:  rank,
		group: group,
	}
	// Register the group under both contexts so the engine can translate
	// communicator-local ranks to world ranks when a peer dies (p2p traffic
	// uses ctx, collectives use cctx).
	env.eng.registerGroup(c.ctx, group)
	env.eng.registerGroup(c.cctx, group)
	return c
}

// deriveContext computes a child context from a parent context, a sequence
// number, and a label (the split color, a join label, ...). All members of
// the child communicator compute the same inputs and hence agree on the
// context with no communication, even across OS processes.
// The hash is FNV-1a 64, hash/fnv's New64a inlined, of parent and seq
// big-endian, then the label.
func deriveContext(parent uint64, seq uint64, label string) uint64 {
	const prime = 1099511628211
	v := uint64(14695981039346656037) // the offset basis
	for _, x := range [2]uint64{parent, seq} {
		for sh := 56; sh >= 0; sh -= 8 {
			v = (v ^ x>>sh&0xff) * prime
		}
	}
	for i := range len(label) {
		v = (v ^ uint64(label[i])) * prime
	}
	if v == 0 { // reserve 0 as "no context"
		v = 1
	}
	return v
}

// Rank returns this rank's position within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Group returns a copy of the communicator's group: the world rank of each
// communicator rank, in communicator order.
func (c *Comm) Group() []int {
	g := make([]int, len(c.group))
	copy(g, c.group)
	return g
}

// HostOf returns the host label of the given communicator rank, or "" when
// the rank is out of range or the transport has not published a host
// topology (single-host jobs).
func (c *Comm) HostOf(rank int) string {
	if rank < 0 || rank >= len(c.group) {
		return ""
	}
	return c.env.HostOf(c.group[rank])
}

// Context returns the communicator's point-to-point message context. It is
// exposed for diagnostics and tests.
func (c *Comm) Context() uint64 { return c.ctx }

// Perf returns this rank's performance-variable handle (shared by every
// communicator of the rank).
func (c *Comm) Perf() *perf.Rank { return c.env.pv }

// Abort takes the whole job down with the given code: every reachable rank
// unblocks its pending operations with an *AbortError wrapping ErrAborted
// (MPI_Abort semantics). Unlike MPI_Abort it does not terminate the calling
// process — callers decide how to exit once their blocked calls return.
func (c *Comm) Abort(code int) { c.env.Abort(code) }

// Dup returns a communicator with the same group but an isolated context.
// Like all communicator-creating operations it must be called collectively
// (by every member, the same number of times, in the same order).
func (c *Comm) Dup() *Comm {
	c.seq++
	ctx := deriveContext(c.ctx, c.seq, "dup")
	c.env.pv.CountDup()
	return newComm(c.env, ctx, c.rank, c.Group())
}

// SplitWith partitions the communicator by color, ordering each new group
// by (key, parent rank) — the MPI_Comm_split contract — for callers that
// already hold every member's arguments, so no communication is needed:
// colors[r] and keys[r] are what communicator rank r would pass to
// MPI_Comm_split (nil keys means all zero). Ranks whose color is Undefined
// receive a nil communicator. Every member calls it, with identical slices
// and in the same order as its other communicator-creating calls: each call
// advances the parent's derivation counter.
func (c *Comm) SplitWith(colors, keys []int) (*Comm, error) {
	if len(colors) != len(c.group) || (keys != nil && len(keys) != len(c.group)) {
		return nil, fmt.Errorf("mpi: comm split: %d colors and %d keys for comm size %d", len(colors), len(keys), len(c.group))
	}
	c.seq++
	color := colors[c.rank]
	if color == Undefined {
		return nil, nil
	}
	// Parent ranks of my color, ascending; the stable sort by key then
	// leaves them in (key, parent rank) order.
	var members []int
	for r, col := range colors {
		if col == color {
			members = append(members, r)
		}
	}
	if keys != nil {
		sort.SliceStable(members, func(i, j int) bool { return keys[members[i]] < keys[members[j]] })
	}
	group := make([]int, len(members))
	myRank := 0
	for i, r := range members {
		group[i] = c.group[r]
		if r == c.rank {
			myRank = i
		}
	}
	ctx := deriveContext(c.ctx, c.seq, fmt.Sprintf("split:%d", color))
	c.env.pv.CountSplit(color, len(group))
	return newComm(c.env, ctx, myRank, group), nil
}

// CommFromGroup creates a communicator over an explicit, ordered list of
// world ranks without any communication: every member must call it with an
// identical group and label, and the label must be unique among live
// communicators sharing the same parent context (callers that join the same
// group repeatedly must vary the label, e.g. with a counter).
//
// The calling rank must be a member of group. parent supplies the context
// namespace; members of group need not all be members of parent's group, so
// this implements MPI_Comm_create_group-style subset creation as used by
// MPH_comm_join.
func CommFromGroup(parent *Comm, group []int, label string) (*Comm, error) {
	myRank := -1
	seen := make(map[int]bool, len(group))
	for i, wr := range group {
		if wr < 0 || wr >= parent.env.worldSize {
			return nil, fmt.Errorf("%w: world rank %d in group", ErrRank, wr)
		}
		if seen[wr] {
			return nil, fmt.Errorf("mpi: duplicate world rank %d in group", wr)
		}
		seen[wr] = true
		if wr == parent.env.worldRank {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("mpi: calling rank %d is not in the requested group", parent.env.worldRank)
	}
	g := make([]int, len(group))
	copy(g, group)
	ctx := deriveContext(worldContext, 0, "group:"+label)
	parent.env.pv.CountJoin(len(g))
	return newComm(parent.env, ctx, myRank, g), nil
}
