package core

import (
	"fmt"
	"strings"

	"mph/internal/iolog"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/registry"
)

// Setup is a rank's view of the handshaken multi-component environment: the
// MPH state the paper's Fortran library keeps in module variables.
type Setup struct {
	world  *mpi.Comm
	global *mpi.Comm // private duplicate of world for name-addressed traffic
	reg    *registry.Registry

	execIdx  int
	execComm *mpi.Comm

	// mine lists the components of my executable that cover this rank, in
	// registry order; comms holds one communicator per entry.
	mine  []registry.Component
	comms map[string]*mpi.Comm

	// layout maps every component name to its world ranks in ascending
	// order; a component's local processor i is layout[name][i].
	layout map[string][]int

	// instanceIdx is the instance number (0-based) for MultiInstance
	// setups, -1 otherwise.
	instanceIdx int

	mux     *iolog.Mux
	joinSeq map[string]int
}

// ComponentsSetup is MPH_components_setup: the unified handshake for the
// SCSE, SCME, MCSE and MCME modes (paper §4.1–§4.3). Every rank of every
// executable calls it collectively over the world communicator, passing the
// name-tags of the components its executable contains — one name for a
// single-component executable, up to registry.MaxComponents for a
// multi-component one. The names must match a registration-file entry.
func ComponentsSetup(world *mpi.Comm, src Source, names []string, opts ...Option) (*Setup, error) {
	return handshake(world, src, opts, func(reg *registry.Registry) (int, error) {
		if len(names) == 0 {
			return 0, fmt.Errorf("%w: setup call with no component names", ErrNoSuchExecutable)
		}
		ei, ok := reg.FindExecutableByNames(names)
		if !ok {
			return 0, fmt.Errorf("%w: names %v", ErrNoSuchExecutable, names)
		}
		if reg.Executables[ei].Kind == registry.MultiInstance {
			return 0, fmt.Errorf("%w: entry for %v is multi-instance; call MultiInstance", ErrNoSuchExecutable, names)
		}
		return ei, nil
	})
}

// SingleComponentSetup is the common SCME special case: an executable
// holding exactly one component (paper §4.1).
func SingleComponentSetup(world *mpi.Comm, src Source, name string, opts ...Option) (*Setup, error) {
	return ComponentsSetup(world, src, []string{name}, opts...)
}

// MultiInstance is MPH_multi_instance (paper §4.4): the calling executable
// is replicated on disjoint processor subsets, one instance per
// registration-file line whose name starts with prefix. Every rank of the
// job calls its setup entry point collectively; ranks of the multi-instance
// executable call this one.
func MultiInstance(world *mpi.Comm, src Source, prefix string, opts ...Option) (*Setup, error) {
	return handshake(world, src, opts, func(reg *registry.Registry) (int, error) {
		if prefix == "" {
			return 0, fmt.Errorf("%w: empty instance prefix", ErrNoSuchExecutable)
		}
		ei, ok := reg.FindMultiInstanceByPrefix(prefix)
		if !ok {
			return 0, fmt.Errorf("%w: no multi-instance entry with prefix %q", ErrNoSuchExecutable, prefix)
		}
		return ei, nil
	})
}

// handshake runs the paper-§6 algorithm in two world collectives on one
// root-0 tree: a Bcast of the registration file and an Allreduce that gives
// every rank the whole (rank -> executable) table. resolve identifies the
// calling rank's executable entry from purely local knowledge. Everything
// after the exchange — the executable communicator, the component
// communicators, the layout, and the verdict on whether any rank failed — is
// derived locally from that table and the registry, identically on every
// rank, so no rank can be left blocked in a collective.
func handshake(world *mpi.Comm, src Source, opts []Option, resolve func(*registry.Registry) (int, error)) (*Setup, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	// Phase spans bracket each handshake stage in the event trace. On an
	// error return the open phase is left unclosed, which the timeline
	// renders as running until the end — exactly where the abort happened.
	pv := world.Perf()

	// Phase 1: root reads the registration file and broadcasts a status
	// byte followed by its text, or by its load error. Every rank parses
	// the identical bytes, so load and parse failures are symmetric.
	phase := pv.BeginPhase(perf.PhaseRegistry)
	var msg []byte
	var loadErr error
	if world.Rank() == 0 {
		var text string
		if text, loadErr = src.load(); loadErr != nil {
			msg = append([]byte{1}, loadErr.Error()...)
		} else {
			msg = append([]byte{0}, text...)
		}
	}
	msg, err := world.Bcast(0, msg)
	if err != nil {
		return nil, fmt.Errorf("mph: handshake: %w", escalate(world, err))
	}
	if loadErr != nil {
		return nil, loadErr
	}
	if len(msg) == 0 {
		return nil, fmt.Errorf("%w: empty registration broadcast", ErrHandshake)
	}
	if msg[0] != 0 {
		return nil, fmt.Errorf("%w: root could not load the registration file: %s", ErrHandshake, msg[1:])
	}
	reg, err := registry.Parse(string(msg[1:]))
	if err != nil {
		return nil, err
	}
	phase.End()

	// Phase 2: locate my executable entry and exchange it — the paper's
	// component_id color, Undefined where resolution failed — together with
	// the one other thing that can fail on a subset of ranks, opening the
	// log directory.
	phase = pv.BeginPhase(perf.PhaseSplit)
	color, resolveErr := resolve(reg)
	if resolveErr != nil {
		color = mpi.Undefined
	}
	s := &Setup{
		world:       world,
		reg:         reg,
		execIdx:     color,
		comms:       make(map[string]*mpi.Comm),
		instanceIdx: -1,
		joinSeq:     make(map[string]int),
	}
	var muxErr error
	if cfg.logDir != "" {
		// Shared per-directory so the ranks of an in-process world write
		// through one handle per file. Without the option the mux is
		// created on the first RedirectOutput call.
		s.mux, muxErr = iolog.Shared(cfg.logDir)
	}
	colors, muxFailed, err := exchange(world, color, muxErr != nil, len(reg.Executables))
	if err != nil {
		return nil, err
	}
	phase.End()

	// Phase 3: derive the communicators and the global layout.
	phase = pv.BeginPhase(perf.PhaseComponents)
	if err := s.derive(colors, resolveErr); err != nil {
		return nil, err
	}
	if len(s.mine) > 0 {
		pv.SetComponent(strings.Join(s.ComponentNames(), "+"))
	}
	// A private duplicate of the world communicator carries MPH's
	// name-addressed point-to-point traffic (the paper's MPH_Global_World),
	// isolated from user traffic on world.
	s.global = world.Dup()
	phase.End()

	if err := verdict(muxErr, muxFailed); err != nil {
		return nil, err
	}
	return s, nil
}

// escalate turns a transport failure inside the handshake into a world-wide
// abort: once a peer is lost the world communicator no longer works, so the
// rank that noticed aborts the job to unblock every sibling still waiting
// inside a collective. Abort is idempotent, so concurrent escalation from
// several ranks is harmless, and ranks that failed because an abort is
// already in flight (mpi.ErrAborted) do not re-broadcast.
func escalate(world *mpi.Comm, err error) error {
	if _, lost := mpi.IsPeerLost(err); lost {
		world.Abort(1)
	}
	return err
}

// exchange is the handshake's one all-to-all step. Every rank contributes a
// fixed-width (world rank, color, log-dir-failed) entry and the Allreduce
// concatenates them; the rank tag makes the tree's combining order
// irrelevant. It returns every rank's color and how many ranks raised the
// flag.
func exchange(world *mpi.Comm, color int, muxFailed bool, numExec int) (colors []int, failed int, err error) {
	flag := int64(0)
	if muxFailed {
		flag = 1
	}
	mine := mpi.EncodeInts([]int64{int64(world.Rank()), int64(color), flag})
	all, err := world.Allreduce(mine, func(acc, in []byte) ([]byte, error) {
		return append(acc[:len(acc):len(acc)], in...), nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("mph: handshake: %w", escalate(world, err))
	}
	vals, err := mpi.DecodeInts(all)
	n := world.Size()
	if err != nil || len(vals) != 3*n {
		return nil, 0, fmt.Errorf("%w: exchanged table is %d bytes for %d ranks", ErrHandshake, len(all), n)
	}
	colors = make([]int, n)
	seen := make([]bool, n)
	for i := 0; i < len(vals); i += 3 {
		r, c := vals[i], vals[i+1]
		if r < 0 || r >= int64(n) || seen[r] || c < mpi.Undefined || c >= int64(numExec) {
			return nil, 0, fmt.Errorf("%w: bad table entry (rank %d, executable %d)", ErrHandshake, r, c)
		}
		seen[r] = true
		colors[r] = int(c)
		if vals[i+2] != 0 {
			failed++
		}
	}
	return colors, failed, nil
}

// verdict is the coordinated abort: when any rank failed a stage, every rank
// returns an error — its own where it has one, a generic ErrHandshake
// elsewhere. failed is the same number on every rank.
func verdict(local error, failed int) error {
	if local != nil {
		return local
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d rank(s) failed", ErrHandshake, failed)
	}
	return nil
}

// derive builds, from every rank's executable index, this rank's executable
// and component communicators and the global layout, and reaches the
// verdicts a failing rank would otherwise have to announce: colors tells
// every rank which ranks failed to resolve, and which executable-local
// processor each of the others is, hence whether its placement fails too.
func (s *Setup) derive(colors []int, resolveErr error) error {
	// Split the world by executable index.
	execComm, err := s.world.SplitWith(colors, nil)
	if err != nil {
		return fmt.Errorf("mph: handshake: executable split: %w", err)
	}
	// execRanks[ei] lists executable ei's world ranks in ascending order:
	// its processor p is execRanks[ei][p], as the key-0 split orders it.
	execRanks := make([][]int, len(s.reg.Executables))
	failed := 0
	for r, ei := range colors {
		if ei == mpi.Undefined {
			failed++
		} else {
			execRanks[ei] = append(execRanks[ei], r)
		}
	}
	if err := verdict(resolveErr, failed); err != nil {
		return err
	}
	s.execComm = execComm

	// Establish component communicators inside my executable, counting the
	// ranks of every executable that cannot be placed.
	for ei, ranks := range execRanks {
		for p := range ranks {
			if placementError(s.reg.Executables[ei], len(ranks), p) != nil {
				failed++
			}
		}
	}
	if err := verdict(s.establishComponents(), failed); err != nil {
		return err
	}

	// The global layout: a component's local processor i is the i-th of its
	// executable's processors that the component covers.
	s.layout = make(map[string][]int, s.reg.TotalComponents())
	for ei, ranks := range execRanks {
		e := s.reg.Executables[ei]
		for _, c := range e.Components {
			for p, wr := range ranks {
				if e.Kind == registry.SingleComponent || c.Covers(p) {
					s.layout[c.Name] = append(s.layout[c.Name], wr)
				}
			}
		}
	}
	return s.validateLayout()
}

// placementError reports why processor p of an executable launched on size
// processors cannot be placed: the launch disagrees with the size the
// registration file fixes (a bare entry accepts whatever the launcher
// provided), or no instance of a replicated executable covers p.
func placementError(e registry.Executable, size, p int) error {
	if want := e.Size(); want >= 0 && size != want {
		return fmt.Errorf("%w: executable %v needs %d processors per the registration file, launched with %d",
			ErrLayout, e.ComponentNames(), want, size)
	}
	if e.Kind == registry.MultiInstance && firstCovering(e, p) == mpi.Undefined {
		return fmt.Errorf("%w: executable processor %d is covered by no instance", ErrLayout, p)
	}
	return nil
}

// firstCovering returns the index of the first component of e that covers
// executable-local processor p, or mpi.Undefined.
func firstCovering(e registry.Executable, p int) int {
	for i := range e.Components {
		if e.Components[i].Covers(p) {
			return i
		}
	}
	return mpi.Undefined
}

// establishComponents builds this rank's component communicators according
// to its executable's kind (paper §6, cases 1 and 2).
func (s *Setup) establishComponents() error {
	e := s.reg.Executables[s.execIdx]
	if err := placementError(e, s.execComm.Size(), s.execComm.Rank()); err != nil {
		return err
	}

	switch e.Kind {
	case registry.SingleComponent:
		// The executable communicator is the component communicator.
		s.mine = []registry.Component{e.Components[0]}
		s.comms[e.Components[0].Name] = s.execComm
		return nil

	case registry.MultiComponent:
		if componentsOverlap(e) {
			return s.establishOverlapping(e)
		}
		return s.establishDisjoint(e)

	case registry.MultiInstance:
		// Instances are disjoint by construction (registry.Validate), and
		// placementError has already rejected an uncovered processor.
		s.instanceIdx = firstCovering(e, s.execComm.Rank())
		return s.establishDisjoint(e)

	default:
		return fmt.Errorf("mph: unknown executable kind %v", e.Kind)
	}
}

// componentsOverlap reports whether any two components of the executable
// share an executable-local processor.
func componentsOverlap(e registry.Executable) bool {
	for i := 0; i < len(e.Components); i++ {
		for j := i + 1; j < len(e.Components); j++ {
			a, b := e.Components[i], e.Components[j]
			if a.Low <= b.High && b.Low <= a.High {
				return true
			}
		}
	}
	return false
}

// splitExec stands in for MPI_Comm_split(execComm, color(me), 0): every
// member works out every member's color from the registration entry they all
// parsed, so the exchange inside Comm_split has nothing left to tell them.
func (s *Setup) splitExec(color func(p int) int) (*mpi.Comm, error) {
	colors := make([]int, s.execComm.Size())
	for p := range colors {
		colors[p] = color(p)
	}
	return s.execComm.SplitWith(colors, nil)
}

// establishDisjoint creates all component communicators with a single
// Comm_split, the fast path of paper §6(2).
func (s *Setup) establishDisjoint(e registry.Executable) error {
	comm, err := s.splitExec(func(p int) int { return firstCovering(e, p) })
	if err != nil {
		return fmt.Errorf("mph: component split: %w", err)
	}
	if comm != nil {
		c := e.Components[firstCovering(e, s.execComm.Rank())]
		s.mine = []registry.Component{c}
		s.comms[c.Name] = comm
	}
	return nil
}

// establishOverlapping creates component communicators one at a time with
// repeated Comm_split calls, the general path of paper §6(2) that permits
// partially or completely overlapping components.
func (s *Setup) establishOverlapping(e registry.Executable) error {
	for _, c := range e.Components {
		comm, err := s.splitExec(func(p int) int {
			if c.Covers(p) {
				return 0
			}
			return mpi.Undefined
		})
		if err != nil {
			return fmt.Errorf("mph: component split for %q: %w", c.Name, err)
		}
		if comm != nil {
			s.mine = append(s.mine, c)
			s.comms[c.Name] = comm
		}
	}
	return nil
}

// validateLayout cross-checks the layout against the registration file:
// every component must have the processor count its entry implies. The
// verdict is the same on every rank.
func (s *Setup) validateLayout() error {
	for _, e := range s.reg.Executables {
		for _, c := range e.Components {
			got := len(s.layout[c.Name])
			switch {
			case c.Ranged() && got != c.NProcs():
				return fmt.Errorf("%w: component %q has %d processors, registration file says %d",
					ErrLayout, c.Name, got, c.NProcs())
			case !c.Ranged() && got == 0:
				return fmt.Errorf("%w: component %q has no processors", ErrLayout, c.Name)
			}
		}
	}
	return nil
}
