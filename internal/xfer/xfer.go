// Package xfer implements M-to-N redistribution of distributed fields
// between two components' decompositions, the data-movement use case the
// paper gives for MPH_comm_join (§5.1: "With this joint communicator,
// collective operations such as data redistribution could easily be
// performed") and the service MCT layers on top of MPH.
//
// Both components hold the same logical grid, each block-decomposed over
// its own processor count. A Router computes, per processor, the contiguous
// latitude-band segments it must exchange with the other side, one message
// each; a Plan lays one rank's segments out against its slabs and runs them,
// as often as the coupling repeats, with point-to-point messages over a
// communicator in which the source processors occupy one rank block and the
// destination processors another (exactly what CommJoin produces).
package xfer

import (
	"errors"
	"fmt"

	"mph/internal/grid"
	"mph/internal/mpi"
)

// Segment is one contiguous piece of a transfer plan, one message: the
// latitude bands [Lo, Hi) moving between this processor and the peer
// processor on the other decomposition.
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
// destination processor. Block intersections of intervals are intervals, so
// each (sender, receiver) pair shares one band range, which moves as one
// segment, one message.
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
	for p := 0; p < other.P && lo < hi; p++ {
		plo, phi := other.Bands(p)
		if l, h := max(lo, plo), min(hi, phi); l < h {
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
// of times: which cell ranges of its source slab go to which ranks, and which
// ranges of its destination slab come from which. The slabs are the
// caller's, named afresh every run, so two plans can take turns with one
// slab; the plan owns only its requests.
//
// A run lands its incoming segments one of two ways. Start posts a receive
// for every incoming segment straight into its range of the destination
// slab, then sends every outgoing segment straight from the source slab; Wait
// completes the receives. No rank sends before all its receives are posted,
// so ranks that are sources and destinations of each other cannot deadlock,
// however large the segments (a send above the eager threshold blocks until
// its receive is posted; DESIGN.md §12). Between the two a rank may start
// other plans, as the coupler does. StartFold instead keeps no destination
// slab: it posts only the first incoming segment's receive, whose payload
// goes to the caller's fold, then sends; Wait posts the others one at a time,
// in source processor order, each once the fold of the one before is done. A
// destination that only adds its increments into a slab of its own, or sums
// a field it does not keep, needs no second slab that way. The later
// segments' senders then wait on this rank's progress, so StartFold is for
// transfers whose senders do not wait back, as in the coupled loop (DESIGN.md
// §12). SendFill is its mirror on the source side: the caller's fill writes
// each outgoing segment as the transport sends it, so the source slab need
// not exist. Nothing is allocated after NewPlan.
type Plan struct {
	comm             *mpi.Comm
	src, dst         *grid.Decomp
	srcProc, dstProc int
	sends            []piece
	recvs            []piece
	reqs             []mpi.Request // one per incoming segment

	// The run in flight. live: the receives are posted and not yet waited
	// for. During a StartFold run, fold is the caller's and tag the run's;
	// at is the slab offset of the segment being folded or filled, which
	// atFold and atFill, bound once, add to the transport's piece offsets.
	live           bool
	tag            int
	fold, fill     func(lo int, seg []float64)
	at             int
	atFold, atFill func(lo int, seg []float64)
}

// errNoRun is what Wait returns when no run is in flight.
var errNoRun = errors.New("xfer: no run in flight")

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
	p := &Plan{comm: comm, src: r.Src, dst: r.Dst, srcProc: spec.SrcProc, dstProc: spec.DstProc}
	if spec.SrcProc >= 0 {
		p.sends = pieces(r.SendPlan(spec.SrcProc), r.Src, spec.SrcProc, spec.DstRanks, spec.DstOffset)
	}
	if spec.DstProc >= 0 {
		p.recvs = pieces(r.RecvPlan(spec.DstProc), r.Dst, spec.DstProc, spec.SrcRanks, spec.SrcOffset)
		p.reqs = make([]mpi.Request, len(p.recvs))
	}
	p.atFold = func(lo int, seg []float64) { p.fold(p.at+lo, seg) }
	p.atFill = func(lo int, seg []float64) { p.fill(p.at+lo, seg) }
	return p, nil
}

// Start begins one run under tag: every incoming segment's receive is
// posted into its range of dst — this rank's destination slab; nil on a rank
// that is not a destination — then every segment of src — its source slab;
// nil on a rank that is not a source — is sent. src is the caller's again
// when Start returns; dst is the run's until Wait returns. Each Start must be
// followed by a Wait before the next run.
func (p *Plan) Start(tag int, src, dst *grid.Field) error {
	if err := p.check(tag, src); err != nil {
		return err
	}
	if p.dstProc >= 0 && !fits(dst, p.dst, p.dstProc) {
		return fmt.Errorf("xfer: field does not match destination processor %d", p.dstProc)
	}
	for i, pc := range p.recvs {
		p.comm.StartRecvFloatsInto(&p.reqs[i], pc.rank, tag, dst.Data[pc.lo:pc.hi])
	}
	if err := p.send(tag, src, len(p.recvs)); err != nil {
		return err
	}
	p.live, p.fold = true, nil
	return nil
}

// StartFold begins one run under tag whose incoming segments go to fold
// rather than into a slab: the first segment's receive is posted, then every
// segment of src is sent, as in Start. Wait takes the segments in source
// processor order, and fold gets each in pieces, seg holding cells
// [lo, lo+len(seg)) of this rank's destination slab, in ascending order. fold
// runs on the transport's goroutine, or in Wait; it must not call MPI, and
// seg is its only until it returns.
func (p *Plan) StartFold(tag int, src *grid.Field, fold func(lo int, seg []float64)) error {
	if err := p.check(tag, src); err != nil {
		return err
	}
	p.fold, p.tag = fold, tag
	n := min(len(p.recvs), 1)
	if n > 0 {
		p.post(0)
	}
	if err := p.send(tag, src, n); err != nil {
		return err
	}
	p.live = true
	return nil
}

// post posts the receive of incoming segment k of a StartFold run.
func (p *Plan) post(k int) {
	pc := p.recvs[k]
	p.at = pc.lo
	p.comm.StartRecvFloatsFold(&p.reqs[k], pc.rank, p.tag, pc.hi-pc.lo, p.atFold)
}

// Wait completes the run Start or StartFold began: dst holds the incoming
// segments, or fold has had them all, when it returns nil. Without a run in
// flight — none started, the last one already waited for, or its Start
// failed — it returns an error.
func (p *Plan) Wait() error {
	if !p.live {
		return errNoRun
	}
	p.live = false
	if p.fold != nil {
		for k := range p.recvs {
			if k > 0 {
				p.post(k)
			}
			if _, _, err := p.reqs[k].Wait(); err != nil {
				return fmt.Errorf("xfer: recv from src proc %d: %w", p.recvs[k].proc, err)
			}
		}
		return nil
	}
	var first error
	for i := range p.reqs {
		if _, _, err := p.reqs[i].Wait(); err != nil && first == nil {
			first = fmt.Errorf("xfer: recv from src proc %d: %w", p.recvs[i].proc, err)
		}
	}
	return first
}

// Run is Start followed by Wait.
func (p *Plan) Run(tag int, src, dst *grid.Field) error {
	if err := p.Start(tag, src, dst); err != nil {
		return err
	}
	return p.Wait()
}

// SendFill sends this rank's outgoing segments under tag, one at a time,
// with no source slab: fill writes into seg the cells [lo, lo+len(seg)) of
// the source slab it stands for, piece by piece, as the transport sends them.
// fill may be asked for a piece again (a resend after a lost connection), and
// must write the same values; it must not call MPI. Nothing is received, and
// no run of the plan may be in flight.
func (p *Plan) SendFill(tag int, fill func(lo int, seg []float64)) error {
	if err := p.ready(tag); err != nil {
		return err
	}
	p.fill = fill
	for _, pc := range p.sends {
		p.at = pc.lo
		if err := p.comm.SendFloatsFill(pc.rank, tag, pc.hi-pc.lo, p.atFill); err != nil {
			return fmt.Errorf("xfer: send to dst proc %d: %w", pc.proc, err)
		}
	}
	return nil
}

// ready reports why no run may start under tag: one in flight, or a
// negative tag.
func (p *Plan) ready(tag int) error {
	if p.live {
		return errors.New("xfer: a run is already in flight")
	}
	if tag < 0 {
		return fmt.Errorf("xfer: negative tag %d", tag)
	}
	return nil
}

// check validates a run's start: ready, and the source slab.
func (p *Plan) check(tag int, src *grid.Field) error {
	if err := p.ready(tag); err != nil {
		return err
	}
	if p.srcProc >= 0 {
		if src == nil {
			return fmt.Errorf("xfer: source processor %d has no field", p.srcProc)
		}
		if !fits(src, p.src, p.srcProc) {
			return fmt.Errorf("xfer: field does not match source processor %d", p.srcProc)
		}
	}
	return nil
}

// fits reports whether f is processor proc's slab of d. Structural match
// suffices: NewDecomp is deterministic in (grid, P), so two decomps with
// equal shape partition alike.
func fits(f *grid.Field, d *grid.Decomp, proc int) bool {
	return f != nil && f.Decomp.Grid == d.Grid && f.Decomp.P == d.P && f.P == proc
}

// send sends every outgoing segment of src. On failure the first posted
// receives are withdrawn, and one that already matched is waited out: its
// payload lands, or its fold runs, before the error is returned, never
// behind the caller's back — the run never started.
func (p *Plan) send(tag int, src *grid.Field, posted int) error {
	for _, pc := range p.sends {
		if err := p.comm.SendFloats(pc.rank, tag, src.Data[pc.lo:pc.hi]); err != nil {
			for i := range p.reqs[:posted] {
				if !p.reqs[i].Cancel() {
					p.reqs[i].Wait() //nolint:errcheck // the send's error is the run's
				}
			}
			return fmt.Errorf("xfer: send to dst proc %d: %w", pc.proc, err)
		}
	}
	return nil
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
