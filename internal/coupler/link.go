// Package coupler implements the flux-coupler pattern of CCSM on top of
// MPH: component models exchange surface fields with a hub component
// through MPH-joined communicators (paper §5.1) and M-to-N redistribution
// (package xfer). It exists to exercise MPH the way its motivating
// application does — handshake, per-component communicators, comm_join,
// repeated coupled exchanges — with a deterministic toy physics that has
// testable conservation properties.
package coupler

import (
	"fmt"

	"mph/internal/core"
	"mph/internal/grid"
	"mph/internal/xfer"
)

// Link is the coupling channel between one model component and the coupler
// component: this rank's transfer plan for each direction over the two
// components' joined communicator. Every rank of both constructs the Link
// collectively (in the same order relative to other Links, since CommJoin is
// collective).
//
// The plans own no slab. The coupled loop (RunCoupled) runs them against
// slabs of its own: a coupler rank receives atmosphere and ice into two
// fields and folds land and ocean as they arrive, and a model rank folds its
// increment into its state, one segment a coupler rank at a time (DESIGN.md
// §12). ToCoupler and ToModel are the one-call form: the field they return
// on the receiving side belongs to the link, is allocated on the first call
// that needs it, and holds that exchange's data until the next call on the
// same link in the same direction overwrites it. A caller that needs it longer copies it. Until
// then the caller may also write into it and send from it, because a send,
// eager or rendezvous, is done with its buffer when it returns, and the next
// receive into the field is posted only by the next call.
type Link struct {
	model, coupler string

	modelDecomp, couplerDecomp *grid.Decomp

	// local processor indices; -1 when this rank is not on that side.
	myModelProc, myCouplerProc int

	up, down *xfer.Plan // model → coupler, coupler → model

	// The fields ToCoupler and ToModel return, allocated on first use: the
	// coupled loop never calls them on the receiving side.
	upField, downField *grid.Field
}

// NewLink joins model and coupler components over a shared logical grid.
// The two components must be disjoint on processors (a coupler overlapping
// its model would make the joined rank blocks ambiguous).
func NewLink(s *core.Setup, model, coupler string, g grid.Grid) (*Link, error) {
	if model == coupler {
		return nil, fmt.Errorf("coupler: component linked with itself: %q", model)
	}
	mRanks, err := s.ComponentRanks(model)
	if err != nil {
		return nil, err
	}
	cRanks, err := s.ComponentRanks(coupler)
	if err != nil {
		return nil, err
	}
	inModel := make(map[int]bool, len(mRanks))
	for _, r := range mRanks {
		inModel[r] = true
	}
	for _, r := range cRanks {
		if inModel[r] {
			return nil, fmt.Errorf("coupler: components %q and %q overlap on world rank %d", model, coupler, r)
		}
	}

	joined, err := s.CommJoin(model, coupler)
	if err != nil {
		return nil, err
	}
	md, err := grid.NewDecomp(g, len(mRanks))
	if err != nil {
		return nil, err
	}
	cd, err := grid.NewDecomp(g, len(cRanks))
	if err != nil {
		return nil, err
	}
	l := &Link{
		model:         model,
		coupler:       coupler,
		modelDecomp:   md,
		couplerDecomp: cd,
		myModelProc:   -1,
		myCouplerProc: -1,
	}
	if comm, ok := s.ProcInComponent(model); ok {
		l.myModelProc = comm.Rank()
	}
	if comm, ok := s.ProcInComponent(coupler); ok {
		l.myCouplerProc = comm.Rank()
	}
	plan := func(src, dst *grid.Decomp, spec xfer.Spec) (*xfer.Plan, error) {
		r, err := xfer.NewRouter(src, dst)
		if err != nil {
			return nil, err
		}
		return xfer.NewPlan(joined, r, spec)
	}
	// The coupler block follows the model block on the joined communicator.
	if l.up, err = plan(md, cd, xfer.Spec{DstOffset: md.P, SrcProc: l.myModelProc, DstProc: l.myCouplerProc}); err != nil {
		return nil, err
	}
	if l.down, err = plan(cd, md, xfer.Spec{SrcOffset: md.P, SrcProc: l.myCouplerProc, DstProc: l.myModelProc}); err != nil {
		return nil, err
	}
	return l, nil
}

// ModelDecomp returns the model side's decomposition of the coupling grid.
func (l *Link) ModelDecomp() *grid.Decomp { return l.modelDecomp }

// CouplerDecomp returns the coupler side's decomposition.
func (l *Link) CouplerDecomp() *grid.Decomp { return l.couplerDecomp }

// OnCoupler reports whether this rank is on the coupler side, and its
// processor index there.
func (l *Link) OnCoupler() (int, bool) { return l.myCouplerProc, l.myCouplerProc >= 0 }

// ToCoupler redistributes a model field onto the coupler decomposition.
// Model ranks pass their slab; coupler ranks pass nil and receive theirs,
// which the link owns (see Link). Collective over the joined communicator.
func (l *Link) ToCoupler(f *grid.Field, tag int) (*grid.Field, error) {
	return run(l.up, tag, f, &l.upField, l.couplerDecomp, l.myCouplerProc)
}

// ToModel redistributes a coupler field onto the model decomposition.
// Coupler ranks pass their slab; model ranks pass nil and receive theirs,
// which the link owns (see Link). Collective over the joined communicator.
func (l *Link) ToModel(f *grid.Field, tag int) (*grid.Field, error) {
	return run(l.down, tag, f, &l.downField, l.modelDecomp, l.myModelProc)
}

// run is one exchange of p from src into *own, processor proc's slab of d,
// which is allocated on the first run that lands in it. It returns *own, nil
// on a rank that receives nothing (proc < 0).
func run(p *xfer.Plan, tag int, src *grid.Field, own **grid.Field, d *grid.Decomp, proc int) (*grid.Field, error) {
	if proc >= 0 && *own == nil {
		*own = grid.NewField(d, proc)
	}
	if err := p.Run(tag, src, *own); err != nil {
		return nil, err
	}
	return *own, nil
}
