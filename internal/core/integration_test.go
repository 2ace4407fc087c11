package core_test

import (
	"fmt"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// Cross-executable operations in the MCME layout of paper §4.3: joins and
// named traffic between components living in different executables.
func TestMCMECrossExecutableJoin(t *testing.T) {
	mpitest.Run(t, mcmeWorldSize, func(c *mpi.Comm) error {
		s, err := mcmeSetup(c)
		if err != nil {
			return err
		}
		// Join ocean (exec 1) with coupler (exec 2).
		names := map[string]bool{}
		for _, n := range s.ComponentNames() {
			names[n] = true
		}
		if !names["ocean"] && !names["coupler"] {
			return nil
		}
		joined, err := s.CommJoin("ocean", "coupler")
		if err != nil {
			return err
		}
		if joined.Size() != 5 { // 4 ocean + 1 coupler
			return fmt.Errorf("joined size %d", joined.Size())
		}
		// Ocean block first: ocean local i -> joined rank i; coupler ->
		// joined rank 4.
		if names["ocean"] {
			comm, _ := s.ProcInComponent("ocean")
			if joined.Rank() != comm.Rank() {
				return fmt.Errorf("ocean joined rank %d != local %d", joined.Rank(), comm.Rank())
			}
		} else if joined.Rank() != 4 {
			return fmt.Errorf("coupler joined rank %d", joined.Rank())
		}
		// A broadcast from the coupler over the joined communicator.
		var in []byte
		if joined.Rank() == 4 {
			in = []byte("flux schedule v2")
		}
		msg, err := joined.Bcast(4, in)
		if err != nil {
			return err
		}
		if string(msg) != "flux schedule v2" {
			return fmt.Errorf("bcast got %q", msg)
		}
		return nil
	})
}

// A job mixing all three executable kinds: one multi-component executable,
// one multi-instance executable, one bare single-component executable.
func TestMixedKindJob(t *testing.T) {
	reg := `
BEGIN
Multi_Component_Begin
dyn 0 1
phy 2 3
Multi_Component_End
Multi_Instance_Begin
ens1 0 0 seed=1
ens2 1 1 seed=2
Multi_Instance_End
hub
END
`
	// World: exec0 ranks 0-3, exec1 ranks 4-5, hub rank 6.
	mpitest.Run(t, 7, func(c *mpi.Comm) error {
		var s *core.Setup
		var err error
		switch {
		case c.Rank() < 4:
			s, err = core.ComponentsSetup(c, core.TextSource(reg), []string{"dyn", "phy"})
		case c.Rank() < 6:
			s, err = core.MultiInstance(c, core.TextSource(reg), "ens")
		default:
			s, err = core.SingleComponentSetup(c, core.TextSource(reg), "hub")
		}
		if err != nil {
			return err
		}
		if s.TotalComponents() != 5 || s.NumExecutables() != 3 {
			return fmt.Errorf("%d components, %d executables", s.TotalComponents(), s.NumExecutables())
		}
		// Every rank sees the full layout.
		for name, want := range map[string][]int{
			"dyn": {0, 1}, "phy": {2, 3}, "ens1": {4}, "ens2": {5}, "hub": {6},
		} {
			got, err := s.ComponentRanks(name)
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("%s ranks %v, want %v", name, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%s ranks %v, want %v", name, got, want)
				}
			}
		}
		// Instances carry their seeds.
		if c.Rank() == 4 || c.Rank() == 5 {
			seed, ok, err := s.GetArgumentInt("seed")
			if err != nil || !ok || seed != c.Rank()-3 {
				return fmt.Errorf("seed = %d, %v, %v", seed, ok, err)
			}
		}
		// Hub can address everyone by name.
		const tag = 3
		if c.Rank() == 6 {
			for _, name := range []string{"dyn", "phy", "ens1", "ens2"} {
				if err := s.SendTo(name, 0, tag, []byte(name)); err != nil {
					return err
				}
			}
		}
		if s.LocalProcID() == 0 && s.CompName() != "hub" {
			data, _, err := s.RecvFrom("hub", 0, tag)
			if err != nil {
				return err
			}
			if string(data) != s.CompName() {
				return fmt.Errorf("%s got %q", s.CompName(), data)
			}
		}
		return nil
	})
}

// Sequential applications on one world: the whole handshake can run
// repeatedly against the same registration with a different layout each time
// (component "first" holds world ranks 0..round).
func TestSequentialSetups(t *testing.T) {
	const reg = "BEGIN\nfirst\nsecond\nEND\n"
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		for round := 0; round < 3; round++ {
			name, size := "first", round+1
			if c.Rank() > round {
				name, size = "second", c.Size()-round-1
			}
			s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if s.CompName() != name {
				return fmt.Errorf("round %d: %q", round, s.CompName())
			}
			comm, _ := s.ProcInComponent(name)
			sum, err := comm.AllreduceInts([]int64{1}, mpi.OpSum)
			if err != nil {
				return err
			}
			if sum[0] != int64(size) {
				return fmt.Errorf("round %d: %s has %d ranks, want %d", round, name, sum[0], size)
			}
		}
		return nil
	})
}

// Joins of one component pair made through two handshakes of the same
// registration on one world must not share a message context.
func TestCommJoinIsolatedAcrossRemaps(t *testing.T) {
	const reg = "BEGIN\na\nb\nEND\n"
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		name := "a"
		if c.Rank() == 1 {
			name = "b"
		}
		var joins [2]*mpi.Comm
		for i := range joins {
			s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
			if err != nil {
				return fmt.Errorf("handshake %d: %w", i, err)
			}
			if joins[i], err = s.CommJoin("a", "b"); err != nil {
				return fmt.Errorf("handshake %d: %w", i, err)
			}
		}
		if joins[0].Context() == joins[1].Context() {
			return fmt.Errorf("joins across handshakes share context %x", joins[0].Context())
		}
		// Rank 0 sends on the new join first, with the same tag; were the
		// contexts shared, rank 1's receive on the old join would take it.
		if c.Rank() == 0 {
			if err := joins[1].Send(1, 0, []byte("new")); err != nil {
				return err
			}
			return joins[0].Send(1, 0, []byte("old"))
		}
		for i, want := range []string{"old", "new"} {
			got, _, err := joins[i].Recv(0, 0)
			if err != nil || string(got) != want {
				return fmt.Errorf("join %d got %q, %v, want %q: a message leaked across joins", i, got, err, want)
			}
		}
		return nil
	})
}

// Stress: a larger world with many components, including the paper's
// 10-component executable limit.
func TestLargeWorldHandshake(t *testing.T) {
	const ranks, comps = 60, 10
	var reg string
	reg = "BEGIN\nMulti_Component_Begin\n"
	for i := 0; i < comps; i++ {
		lo := i * (ranks / comps)
		hi := lo + ranks/comps - 1
		reg += fmt.Sprintf("c%02d %d %d\n", i, lo, hi)
	}
	reg += "Multi_Component_End\nEND\n"
	names := make([]string, comps)
	for i := range names {
		names[i] = fmt.Sprintf("c%02d", i)
	}
	mpitest.Run(t, ranks, func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, core.TextSource(reg), names)
		if err != nil {
			return err
		}
		want := fmt.Sprintf("c%02d", c.Rank()/(ranks/comps))
		if s.CompName() != want {
			return fmt.Errorf("rank %d: %q, want %q", c.Rank(), s.CompName(), want)
		}
		comm, _ := s.ProcInComponent(want)
		if comm.Size() != ranks/comps {
			return fmt.Errorf("comm size %d", comm.Size())
		}
		return nil
	})
}

// Partial overlap: components sharing only part of their ranges.
func TestPartialOverlap(t *testing.T) {
	reg := `
BEGIN
Multi_Component_Begin
alpha 0 3
beta  2 5
Multi_Component_End
END
`
	mpitest.Run(t, 6, func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, core.TextSource(reg), []string{"alpha", "beta"})
		if err != nil {
			return err
		}
		inAlpha := c.Rank() <= 3
		inBeta := c.Rank() >= 2
		if _, ok := s.ProcInComponent("alpha"); ok != inAlpha {
			return fmt.Errorf("rank %d alpha membership %v", c.Rank(), ok)
		}
		if _, ok := s.ProcInComponent("beta"); ok != inBeta {
			return fmt.Errorf("rank %d beta membership %v", c.Rank(), ok)
		}
		if inAlpha && inBeta {
			a, _ := s.ProcInComponent("alpha")
			b, _ := s.ProcInComponent("beta")
			if a.Rank() != c.Rank() || b.Rank() != c.Rank()-2 {
				return fmt.Errorf("rank %d: alpha %d beta %d", c.Rank(), a.Rank(), b.Rank())
			}
		}
		// Layout counts.
		na, _ := s.ComponentSize("alpha")
		nb, _ := s.ComponentSize("beta")
		if na != 4 || nb != 4 {
			return fmt.Errorf("sizes %d/%d", na, nb)
		}
		return nil
	})
}

// A gap in a multi-component layout: executable processors covered by no
// component get empty membership but the handshake still succeeds.
func TestUncoveredExecutableProcessor(t *testing.T) {
	reg := `
BEGIN
Multi_Component_Begin
head 0 1
tail 4 5
Multi_Component_End
END
`
	mpitest.Run(t, 6, func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, core.TextSource(reg), []string{"head", "tail"})
		if err != nil {
			return err
		}
		uncovered := c.Rank() == 2 || c.Rank() == 3
		if uncovered {
			if s.CompName() != "" || s.LocalProcID() != -1 {
				return fmt.Errorf("rank %d: %q/%d", c.Rank(), s.CompName(), s.LocalProcID())
			}
			if len(s.ComponentNames()) != 0 {
				return fmt.Errorf("rank %d: names %v", c.Rank(), s.ComponentNames())
			}
			if _, ok := s.Args().Field(1); ok {
				return fmt.Errorf("rank %d: args", c.Rank())
			}
		} else if s.CompName() == "" {
			return fmt.Errorf("rank %d: no component", c.Rank())
		}
		return nil
	})
}

// The MCSE master-program flow of §4.2 quoted end to end: the sample file
// with 36 processors and the three PROC_in_component dispatches.
func TestPaperMCSEExampleVerbatim(t *testing.T) {
	reg := `
BEGIN
Multi_Component_Begin
atmosphere 0 15
ocean 16 31
coupler 32 35
Multi_Component_End
END
`
	mpitest.Run(t, 36, func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, core.TextSource(reg),
			[]string{"atmosphere", "ocean", "coupler"})
		if err != nil {
			return err
		}
		count := 0
		if comm, ok := s.ProcInComponent("ocean"); ok {
			count++
			if comm.Size() != 16 {
				return fmt.Errorf("ocean size %d", comm.Size())
			}
		}
		if comm, ok := s.ProcInComponent("atmosphere"); ok {
			count++
			if comm.Size() != 16 {
				return fmt.Errorf("atmosphere size %d", comm.Size())
			}
		}
		if comm, ok := s.ProcInComponent("coupler"); ok {
			count++
			if comm.Size() != 4 {
				return fmt.Errorf("coupler size %d", comm.Size())
			}
		}
		if count != 1 {
			return fmt.Errorf("rank %d in %d components", c.Rank(), count)
		}
		return nil
	})
}

// The §5.1 example verbatim: 16 atmosphere + 8 ocean processors; the joint
// communicator ranks atmosphere 0-15 and ocean 16-23, and reversing the
// call gives ocean 0-7, atmosphere 8-23.
func TestPaperCommJoinExampleVerbatim(t *testing.T) {
	reg := "BEGIN\natmosphere\nocean\nEND\n"
	mpitest.Run(t, 24, func(c *mpi.Comm) error {
		name := "atmosphere"
		if c.Rank() >= 16 {
			name = "ocean"
		}
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
		if err != nil {
			return err
		}
		j, err := s.CommJoin("atmosphere", "ocean")
		if err != nil {
			return err
		}
		if name == "atmosphere" {
			if j.Rank() != s.LocalProcID() || j.Rank() > 15 {
				return fmt.Errorf("atm joined rank %d", j.Rank())
			}
		} else if j.Rank() != 16+s.LocalProcID() {
			return fmt.Errorf("ocn joined rank %d", j.Rank())
		}
		rev, err := s.CommJoin("ocean", "atmosphere")
		if err != nil {
			return err
		}
		if name == "ocean" {
			if rev.Rank() != s.LocalProcID() || rev.Rank() > 7 {
				return fmt.Errorf("ocn reversed rank %d", rev.Rank())
			}
		} else if rev.Rank() != 8+s.LocalProcID() {
			return fmt.Errorf("atm reversed rank %d", rev.Rank())
		}
		return nil
	})
}
