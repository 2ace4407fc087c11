// Package xfer implements M-to-N redistribution of distributed fields
// between two components' decompositions, the data-movement use case the
// paper gives for MPH_comm_join (§5.1: "With this joint communicator,
// collective operations such as data redistribution could easily be
// performed") and the service MCT layers on top of MPH.
//
// Both components hold the same logical grid, each block-decomposed over
// its own processor count. A Router computes, per processor, the contiguous
// latitude-band segments it must exchange with the other side; a Plan lays
// one rank's segments out against its slabs and runs them, as often as the
// coupling repeats, with point-to-point messages over a communicator in
// which the source processors occupy one rank block and the destination
// processors another (exactly what CommJoin produces).
package xfer

import (
	"fmt"

	"mph/internal/grid"
	"mph/internal/mpi"
)

// Segment is one contiguous piece of a transfer plan: the latitude bands
// [Lo, Hi) moving between this processor and the peer processor on the
// other decomposition.
type Segment struct {
	Peer   int // processor index on the other decomposition
	Lo, Hi int // half-open latitude band range
}

// Cells returns the number of grid cells the segment carries.
func (s Segment) Cells(g grid.Grid) int { return (s.Hi - s.Lo) * g.NLon }

// Router holds the source and destination decompositions of a transfer and
// computes exchange plans. It is cheap to build (O(M+N)) and immutable.
type Router struct {
	Src, Dst *grid.Decomp
}

// NewRouter validates that both decompositions cover the same grid.
func NewRouter(src, dst *grid.Decomp) (*Router, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("xfer: nil decomposition")
	}
	if src.Grid != dst.Grid {
		return nil, fmt.Errorf("xfer: grid mismatch: %dx%d vs %dx%d",
			src.Grid.NLat, src.Grid.NLon, dst.Grid.NLat, dst.Grid.NLon)
	}
	return &Router{Src: src, Dst: dst}, nil
}

// SendPlan returns the segments source processor p must send, ordered by
// destination processor. Each (sender, receiver) pair exchanges at most one
// segment because block intersections of intervals are intervals.
func (r *Router) SendPlan(p int) []Segment {
	lo, hi := r.Src.Bands(p)
	return intersect(lo, hi, r.Dst)
}

// RecvPlan returns the segments destination processor q must receive,
// ordered by source processor.
func (r *Router) RecvPlan(q int) []Segment {
	lo, hi := r.Dst.Bands(q)
	return intersect(lo, hi, r.Src)
}

// intersect computes the overlap of band range [lo, hi) with every
// processor of the other decomposition.
func intersect(lo, hi int, other *grid.Decomp) []Segment {
	var segs []Segment
	if lo >= hi {
		return segs
	}
	for p := 0; p < other.P; p++ {
		plo, phi := other.Bands(p)
		l, h := max(lo, plo), min(hi, phi)
		if l < h {
			segs = append(segs, Segment{Peer: p, Lo: l, Hi: h})
		}
	}
	return segs
}

// Spec describes one rank's role in a transfer. A rank may be a source, a
// destination, both, or neither (set the corresponding processor index to
// -1 when absent).
type Spec struct {
	// SrcOffset and DstOffset give the communicator rank of source
	// processor 0 and destination processor 0. With a joined communicator
	// from CommJoin(srcComp, dstComp) these are 0 and the source
	// component's size.
	SrcOffset, DstOffset int
	// SrcRanks and DstRanks, when non-nil, override the affine offset
	// mapping with an explicit communicator rank per processor index —
	// needed when the two processor sets interleave arbitrarily on the
	// communicator (e.g. each rank's slab moving to the next rank round a
	// ring, which no pair of offsets expresses).
	SrcRanks, DstRanks []int
	// SrcProc is this rank's processor index on the source decomposition,
	// or -1.
	SrcProc int
	// DstProc is this rank's processor index on the destination
	// decomposition, or -1.
	DstProc int
}

// piece is one segment of a plan as the wire sees it: the communicator rank
// at the other end and the cell range [lo, hi) of the local slab it moves.
type piece struct {
	proc, rank int
	lo, hi     int
}

// Plan is one rank's share of a transfer, laid out once and run any number
// of times: which cell ranges of its source slab go to which ranks, which
// ranges of its destination slab come from which, and — on a destination
// rank — the destination slab itself, which the plan owns.
//
// A run is two phases. Start posts a receive for every incoming segment
// straight into its range of the destination slab, then sends every outgoing
// segment straight from the source slab; Wait completes the receives. No
// rank sends before all its receives are posted, so ranks that are sources
// and destinations of each other cannot deadlock, however large the segments
// (a send above the eager threshold blocks until its receive is posted;
// DESIGN.md §12). Between the two a rank may start other plans, as the
// coupler does. Nothing is allocated after NewPlan: the slab and the
// requests are the plan's, posted again every run.
type Plan struct {
	comm    *mpi.Comm
	src     *grid.Decomp
	srcProc int
	sends   []piece
	recvs   []piece
	out     *grid.Field   // nil when this rank is not a destination
	reqs    []mpi.Request // one per incoming segment
	live    bool          // between Start and Wait: the receives are posted
}

// NewPlan lays out this rank's share of the transfer r over comm. spec gives
// the rank's role.
func NewPlan(comm *mpi.Comm, r *Router, spec Spec) (*Plan, error) {
	if spec.SrcRanks != nil && len(spec.SrcRanks) != r.Src.P {
		return nil, fmt.Errorf("xfer: SrcRanks has %d entries for %d source processors", len(spec.SrcRanks), r.Src.P)
	}
	if spec.DstRanks != nil && len(spec.DstRanks) != r.Dst.P {
		return nil, fmt.Errorf("xfer: DstRanks has %d entries for %d destination processors", len(spec.DstRanks), r.Dst.P)
	}
	nlon := r.Src.Grid.NLon
	// pieces turns this processor's segments into slab ranges and peer ranks.
	pieces := func(segs []Segment, mine *grid.Decomp, proc int, ranks []int, offset int) []piece {
		myLo, _ := mine.Bands(proc)
		ps := make([]piece, len(segs))
		for i, seg := range segs {
			rank := offset + seg.Peer
			if ranks != nil {
				rank = ranks[seg.Peer]
			}
			ps[i] = piece{proc: seg.Peer, rank: rank, lo: (seg.Lo - myLo) * nlon, hi: (seg.Hi - myLo) * nlon}
		}
		return ps
	}
	p := &Plan{comm: comm, src: r.Src, srcProc: spec.SrcProc}
	if spec.SrcProc >= 0 {
		p.sends = pieces(r.SendPlan(spec.SrcProc), r.Src, spec.SrcProc, spec.DstRanks, spec.DstOffset)
	}
	if spec.DstProc >= 0 {
		p.recvs = pieces(r.RecvPlan(spec.DstProc), r.Dst, spec.DstProc, spec.SrcRanks, spec.SrcOffset)
		p.out = grid.NewField(r.Dst, spec.DstProc)
		p.reqs = make([]mpi.Request, len(p.recvs))
	}
	return p, nil
}

// Start begins one run under tag: every receive is posted, then every
// segment of f — this rank's source slab; nil on a rank that is not a source
// — is sent. f is the caller's again when Start returns. Each Start must be
// followed by a Wait before the next.
func (p *Plan) Start(tag int, f *grid.Field) error {
	if tag < 0 {
		return fmt.Errorf("xfer: negative tag %d", tag)
	}
	if p.srcProc >= 0 {
		if f == nil {
			return fmt.Errorf("xfer: source processor %d has no field", p.srcProc)
		}
		// Structural match suffices: NewDecomp is deterministic in
		// (grid, P), so two decomps with equal shape partition alike.
		if f.Decomp.Grid != p.src.Grid || f.Decomp.P != p.src.P || f.P != p.srcProc {
			return fmt.Errorf("xfer: field does not match source processor %d", p.srcProc)
		}
	}
	for i, pc := range p.recvs {
		p.comm.StartRecvFloatsInto(&p.reqs[i], pc.rank, tag, p.out.Data[pc.lo:pc.hi])
	}
	for _, pc := range p.sends {
		if err := p.comm.SendFloats(pc.rank, tag, f.Data[pc.lo:pc.hi]); err != nil {
			for i := range p.reqs {
				p.reqs[i].Cancel() // nothing may write to the slab behind the caller's back
			}
			return fmt.Errorf("xfer: send to dst proc %d: %w", pc.proc, err)
		}
	}
	p.live = true
	return nil
}

// Wait completes the run Start began and returns the destination slab (nil
// on a rank that is not a destination). The slab is the plan's: it holds
// this run's field until the next Start overwrites it.
func (p *Plan) Wait() (*grid.Field, error) {
	var first error
	for i := 0; p.live && i < len(p.reqs); i++ {
		if _, _, err := p.reqs[i].Wait(); err != nil && first == nil {
			first = fmt.Errorf("xfer: recv from src proc %d: %w", p.recvs[i].proc, err)
		}
	}
	p.live = false
	if first != nil {
		return nil, first
	}
	return p.out, nil
}

// Run is Start followed by Wait.
func (p *Plan) Run(tag int, f *grid.Field) (*grid.Field, error) {
	if err := p.Start(tag, f); err != nil {
		return nil, err
	}
	return p.Wait()
}

// Volume returns the total number of cells the transfer moves (the grid
// size) and the number of point-to-point messages it needs.
func (r *Router) Volume() (cells, messages int) {
	for p := 0; p < r.Src.P; p++ {
		for _, seg := range r.SendPlan(p) {
			cells += seg.Cells(r.Src.Grid)
			messages++
		}
	}
	return cells, messages
}
