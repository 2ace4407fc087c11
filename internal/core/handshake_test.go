package core_test

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
	"mph/internal/mpi/perf"
	"mph/internal/registry"
)

// wideReg is a 16-rank MCME job with disjoint components: executable 0 on
// world ranks 0-7, executable 1 on 8-13, a bare coupler on 14-15.
const wideReg = `
BEGIN
Multi_Component_Begin
atmosphere 0 4
land       5 7
Multi_Component_End
Multi_Component_Begin
ocean 0 3
ice   4 5
Multi_Component_End
coupler
END
`

const wideWorldSize = 16

func wideNames(rank int) []string {
	switch {
	case rank < 8:
		return []string{"atmosphere", "land"}
	case rank < 14:
		return []string{"ocean", "ice"}
	default:
		return []string{"coupler"}
	}
}

// TestHandshakeCollectiveCounts pins what the handshake costs, in counts that
// repeat exactly: one world Bcast and one world Allreduce per rank and no
// other collective, both on the root-0 binomial tree so that no rank sends to
// more than ceil(log2 N)+1 peers, while the communicator-creation count the
// paper's §6 structure implies (one world split per rank, one component
// split per rank of a multi-component executable) is unchanged.
func TestHandshakeCollectiveCounts(t *testing.T) {
	mpitest.Run(t, wideWorldSize, func(c *mpi.Comm) error {
		if _, err := core.ComponentsSetup(c, core.TextSource(wideReg), wideNames(c.Rank())); err != nil {
			return err
		}
		snap := c.Perf().Snapshot()
		for op, cs := range snap.Collectives {
			want := uint64(0)
			if op == "bcast" || op == "allreduce" {
				want = 1
			}
			if cs.Count != want {
				return fmt.Errorf("rank %d: %d %s collective(s) during setup, want %d", c.Rank(), cs.Count, op, want)
			}
		}
		peers := 0
		for _, n := range snap.SentMsgs {
			if n > 0 {
				peers++
			}
		}
		if limit := bits.Len(wideWorldSize-1) + 1; peers > limit {
			return fmt.Errorf("rank %d sent to %d distinct peers, limit %d", c.Rank(), peers, limit)
		}
		splits, err := c.AllreduceInts([]int64{int64(snap.CommSplits)}, mpi.OpSum)
		if err != nil {
			return err
		}
		// 16 world splits + 8 + 6 component splits; the coupler's executable
		// communicator is its component communicator.
		if splits[0] != 30 {
			return fmt.Errorf("job-wide comm splits %d, want 30", splits[0])
		}
		return nil
	})

	// The same handshake on a world placed 5+5 over two hosts (benchmark/'s
	// bulk_2host): both collectives route two-level, and the job sends 27
	// messages — 9 for the Bcast, 18 for the Allreduce, exactly what the flat
	// trees send — of which one and two cross the hosts, where the flat trees'
	// pairing would send 3 and 6 across.
	t.Run("two hosts 5+5", func(t *testing.T) {
		w, err := mpi.NewWorld(10)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.SetHosts([]string{"nodeA", "nodeA", "nodeA", "nodeA", "nodeA", "nodeB", "nodeB", "nodeB", "nodeB", "nodeB"})
		pvs := make([]*perf.Rank, 10)
		err = w.Run(func(c *mpi.Comm) error {
			pvs[c.Rank()] = c.Perf()
			name := "atmosphere"
			if c.Rank() >= 5 {
				name = "ocean"
			}
			_, err := core.ComponentsSetup(c, core.TextSource("BEGIN\natmosphere\nocean\nEND\n"), []string{name})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sent, crossed := uint64(0), uint64(0)
		for r, pv := range pvs {
			snap := pv.Snapshot()
			sent += snap.TotalSentMsgs
			for dst, n := range snap.SentMsgs {
				if (dst < 5) != (r < 5) {
					crossed += n
				}
			}
			if b, a := snap.Collectives["bcast"].Hier, snap.Collectives["allreduce"].Hier; b != 1 || a != 1 {
				t.Errorf("rank %d: two-level selections bcast=%d allreduce=%d, want 1 and 1", r, b, a)
			}
		}
		if sent != 27 || crossed != 3 {
			t.Errorf("handshake sent %d messages job-wide, %d of them between the hosts, want 27 and 3", sent, crossed)
		}
	})
}

// commView is what a rank can observe of a communicator.
type commView struct {
	Rank  int
	Group []int
}

func viewOf(c *mpi.Comm) commView { return commView{c.Rank(), c.Group()} }

// handshakeView is every answer a Setup gives that the handshake decides.
type handshakeView struct {
	Exec     commView
	Mine     []string            // this rank's components, in registry order
	Comms    map[string]commView // its communicator in each of them
	Layout   map[string][]int    // every component's world ranks
	Instance int
}

// splitReference runs the handshake as paper §6 states it, with one real
// MPI_Comm_split per step (mpitest.Split, which exchanges every rank's color
// and key): the world by executable index, each executable by instance or
// once per component (the general path, which the single split of the
// disjoint case must agree with), and an allgather of memberships for the
// layout.
func splitReference(world *mpi.Comm, reg *registry.Registry, execIdx int) (*handshakeView, error) {
	execComm, err := mpitest.Split(world, execIdx, 0)
	if err != nil {
		return nil, err
	}
	v := &handshakeView{Exec: viewOf(execComm), Comms: map[string]commView{}, Layout: map[string][]int{}, Instance: -1}
	e := reg.Executables[execIdx]
	me := execComm.Rank()
	switch e.Kind {
	case registry.SingleComponent:
		v.Mine = []string{e.Components[0].Name}
		v.Comms[e.Components[0].Name] = viewOf(execComm)
	case registry.MultiComponent:
		for _, c := range e.Components {
			color := mpi.Undefined
			if c.Covers(me) {
				color = 0
			}
			comm, err := mpitest.Split(execComm, color, 0)
			if err != nil {
				return nil, err
			}
			if comm != nil {
				v.Mine = append(v.Mine, c.Name)
				v.Comms[c.Name] = viewOf(comm)
			}
		}
	case registry.MultiInstance:
		for i, c := range e.Components {
			if c.Covers(me) {
				v.Instance = i
			}
		}
		comm, err := mpitest.Split(execComm, v.Instance, 0)
		if err != nil {
			return nil, err
		}
		v.Mine = []string{e.Components[v.Instance].Name}
		v.Comms[v.Mine[0]] = viewOf(comm)
	}
	// member[ci*P+r] is 1 when world rank r is in component ci: each rank
	// fills its own slots and the sum gives every rank the whole table.
	names, n := reg.ComponentNames(), world.Size()
	member := make([]int64, len(names)*n)
	for ci, name := range names {
		if _, ok := v.Comms[name]; ok {
			member[ci*n+world.Rank()] = 1
		}
	}
	if _, err := world.AllreduceInts(member, mpi.OpSum); err != nil {
		return nil, err
	}
	for ci, name := range names {
		for r := 0; r < n; r++ {
			if member[ci*n+r] != 0 {
				v.Layout[name] = append(v.Layout[name], r)
			}
		}
	}
	return v, nil
}

// setupView reads the same answers off a Setup.
func setupView(s *core.Setup) (*handshakeView, error) {
	v := &handshakeView{
		Exec:     viewOf(s.ExecWorld()),
		Mine:     s.ComponentNames(),
		Comms:    map[string]commView{},
		Layout:   map[string][]int{},
		Instance: s.InstanceIndex(),
	}
	if len(v.Mine) == 0 {
		v.Mine = nil
	}
	for _, name := range s.Registry().ComponentNames() {
		if comm, ok := s.ProcInComponent(name); ok {
			v.Comms[name] = viewOf(comm)
		}
		ranks, err := s.ComponentRanks(name)
		if err != nil {
			return nil, err
		}
		v.Layout[name] = ranks
	}
	return v, nil
}

// TestHandshakeMatchesSplitReference checks, for every registration shape the
// package's fixtures cover, that the communication-free derivation yields the
// groups, rank orders, layout, instance index and PROC_in_component answers
// of real Comm_split calls, and that the derived communicators work.
func TestHandshakeMatchesSplitReference(t *testing.T) {
	names := func(f func(rank int) []string) func(int) ([]string, string) {
		return func(rank int) ([]string, string) { return f(rank), "" }
	}
	shapes := []struct {
		name string
		reg  string
		size int
		// call gives world rank r's setup call: component names, or an
		// instance prefix.
		call func(rank int) (names []string, prefix string)
	}{
		{"SCSE", "BEGIN\nsolo\nEND\n", 4, names(func(int) []string { return []string{"solo"} })},
		{"SCME bare", scmeReg, scmeWorldSize, names(func(r int) []string { return []string{scmeLaunch(r)} })},
		{"MCSE ranged", mcseReg, 9, names(func(int) []string { return []string{"atmosphere", "ocean", "coupler"} })},
		{"MCME overlapping", mcmeReg, mcmeWorldSize, names(func(r int) []string {
			switch {
			case r < 6:
				return []string{"atmosphere", "land", "chemistry"}
			case r < 13:
				return []string{"ocean", "ice"}
			}
			return []string{"coupler"}
		})},
		{"MCME disjoint", wideReg, wideWorldSize, names(wideNames)},
		{"MCSE disjoint with gap",
			"BEGIN\nMulti_Component_Begin\nhead 0 1\ntail 4 5\nMulti_Component_End\nEND\n", 6,
			names(func(int) []string { return []string{"head", "tail"} })},
		{"MCSE partial overlap with gap",
			"BEGIN\nMulti_Component_Begin\nhead 0 2\nmid 2 3\ntail 6 7\nMulti_Component_End\nEND\n", 8,
			names(func(int) []string { return []string{"head", "mid", "tail"} })},
		{"MIME", mimeReg, mimeWorldSize, func(r int) ([]string, string) {
			if r < 6 {
				return nil, "Ocean"
			}
			return []string{"statistics"}, ""
		}},
		{"mixed kinds",
			"BEGIN\nMulti_Component_Begin\ndyn 0 1\nphy 2 3\nMulti_Component_End\n" +
				"Multi_Instance_Begin\nens1 0 0\nens2 1 1\nMulti_Instance_End\nhub\nEND\n", 7,
			func(r int) ([]string, string) {
				switch {
				case r < 4:
					return []string{"dyn", "phy"}, ""
				case r < 6:
					return nil, "ens"
				}
				return []string{"hub"}, ""
			}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			reg, err := registry.Parse(sh.reg)
			if err != nil {
				t.Fatal(err)
			}
			mpitest.Run(t, sh.size, func(c *mpi.Comm) error {
				names, prefix := sh.call(c.Rank())
				var s *core.Setup
				var err error
				var execIdx int
				var ok bool
				if prefix != "" {
					s, err = core.MultiInstance(c, core.TextSource(sh.reg), prefix)
					execIdx, ok = reg.FindMultiInstanceByPrefix(prefix)
				} else {
					s, err = core.ComponentsSetup(c, core.TextSource(sh.reg), names)
					execIdx, ok = reg.FindExecutableByNames(names)
				}
				if err != nil || !ok {
					return fmt.Errorf("setup: %v (entry found: %v)", err, ok)
				}
				got, err := setupView(s)
				if err != nil {
					return err
				}
				want, err := splitReference(c, reg, execIdx)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("rank %d:\n derived   %+v\n reference %+v", c.Rank(), got, want)
				}
				// Members of a derived communicator agree on its context: a
				// collective over it completes and counts them all.
				for _, name := range got.Mine {
					comm, _ := s.ProcInComponent(name)
					sum, err := comm.AllreduceInts([]int64{1}, mpi.OpSum)
					if err != nil || int(sum[0]) != comm.Size() {
						return fmt.Errorf("allreduce over %q: %v, %v", name, sum, err)
					}
				}
				return nil
			})
		})
	}
}
