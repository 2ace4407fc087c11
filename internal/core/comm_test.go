package core_test

import (
	"errors"
	"fmt"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

func TestCommJoinRankOrdering(t *testing.T) {
	// Paper §5.1: atmosphere's processors rank first, ocean's second; the
	// reversed call reverses the blocks.
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		name := s.CompName()
		if name != "atmosphere" && name != "ocean" {
			return nil // only the two joined components participate
		}
		joined, err := s.CommJoin("atmosphere", "ocean")
		if err != nil {
			return err
		}
		if joined.Size() != 6 {
			return fmt.Errorf("joined size %d", joined.Size())
		}
		local := s.LocalProcID()
		want := local // atmosphere block first
		if name == "ocean" {
			want = 3 + local
		}
		if joined.Rank() != want {
			return fmt.Errorf("%s local %d: joined rank %d, want %d", name, local, joined.Rank(), want)
		}

		// Reversed call: ocean first.
		rev, err := s.CommJoin("ocean", "atmosphere")
		if err != nil {
			return err
		}
		wantRev := 3 + local
		if name == "ocean" {
			wantRev = local
		}
		if rev.Rank() != wantRev {
			return fmt.Errorf("reversed: %s local %d: rank %d, want %d", name, local, rev.Rank(), wantRev)
		}

		// The joint communicator supports collectives — the paper's
		// motivation ("collective operations such as data redistribution").
		sum, err := joined.AllreduceInts([]int64{int64(joined.Rank())}, mpi.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 15 { // 0+1+...+5
			return fmt.Errorf("joined allreduce %d", sum[0])
		}
		return nil
	})
}

func TestCommJoinRepeatedIsolated(t *testing.T) {
	// Joining the same pair twice yields two isolated communicators.
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		if n := s.CompName(); n != "land" && n != "ice" {
			return nil
		}
		j1, err := s.CommJoin("land", "ice")
		if err != nil {
			return err
		}
		j2, err := s.CommJoin("land", "ice")
		if err != nil {
			return err
		}
		if j1.Context() == j2.Context() {
			return fmt.Errorf("repeated joins share a context")
		}
		// Cross traffic check: send on j2, receive on j2 while j1 stays
		// clean.
		if j1.Rank() == 0 {
			if err := j2.Send(1, 0, []byte("second")); err != nil {
				return err
			}
			if err := j1.Send(1, 0, []byte("first")); err != nil {
				return err
			}
		}
		if j1.Rank() == 1 {
			got, _, err := j2.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(got) != "second" {
				return fmt.Errorf("got %q", got)
			}
			if got, _, err = j1.Recv(0, mpi.AnyTag); err != nil || string(got) != "first" {
				return fmt.Errorf("first join got %q, %v: a message leaked onto it", got, err)
			}
		}
		return nil
	})
}

func TestCommJoinOverlapDedup(t *testing.T) {
	// Joining two completely overlapping components (atmosphere and land
	// in the MCME layout) must produce group-union semantics: each world
	// rank appears once.
	mpitest.Run(t, mcmeWorldSize, func(c *mpi.Comm) error {
		s, err := mcmeSetup(c)
		if err != nil {
			return err
		}
		if c.Rank() >= 4 {
			return nil
		}
		joined, err := s.CommJoin("atmosphere", "land")
		if err != nil {
			return err
		}
		if joined.Size() != 4 {
			return fmt.Errorf("joined size %d, want 4 (dedup)", joined.Size())
		}
		if joined.Rank() != c.Rank() {
			return fmt.Errorf("joined rank %d", joined.Rank())
		}
		return nil
	})
}

func TestCommJoinErrors(t *testing.T) {
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		if s.CompName() != "coupler" {
			return nil
		}
		if _, err := s.CommJoin("atmosphere", "atmosphere"); err == nil {
			return fmt.Errorf("self-join accepted")
		}
		if _, err := s.CommJoin("nope", "ocean"); !errors.Is(err, core.ErrUnknownComponent) {
			return fmt.Errorf("unknown component: %v", err)
		}
		// coupler is in neither atmosphere nor ocean.
		if _, err := s.CommJoin("atmosphere", "ocean"); !errors.Is(err, core.ErrNotMember) {
			return fmt.Errorf("non-member join: %v", err)
		}
		return nil
	})
}

func TestInterComponentSendRecv(t *testing.T) {
	// Paper §5.2: "if a processor on atmosphere wants to send Process 3 on
	// ocean" — addressing by (component name, local id).
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		const tag = 100
		switch {
		case s.CompName() == "atmosphere" && s.LocalProcID() == 0:
			if err := s.SendTo("ocean", 2, tag, []byte("atm0->ocn2")); err != nil {
				return err
			}
		case s.CompName() == "ocean" && s.LocalProcID() == 2:
			data, st, err := s.RecvFrom("atmosphere", 0, tag)
			if err != nil {
				return err
			}
			if string(data) != "atm0->ocn2" {
				return fmt.Errorf("got %q", data)
			}
			// Status source is the sender's world rank (atmosphere local 0
			// = world 0).
			if st.Source != 0 {
				return fmt.Errorf("source %d", st.Source)
			}
		}
		return nil
	})
}

func TestInterComponentTrafficIsolatedFromWorld(t *testing.T) {
	// MPH's name-addressed traffic travels on its own communicator
	// (MPH_Global_World), so a user message on the world communicator with
	// the same tag is not consumed by RecvFrom.
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		reg := "BEGIN\na\nb\nEND\n"
		name := "a"
		if c.Rank() >= 2 {
			name = "b"
		}
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
		if err != nil {
			return err
		}
		const tag = 5
		if c.Rank() == 0 {
			// Both a world message and an MPH message to b's local 0
			// (world rank 2), same tag.
			if err := c.Send(2, tag, []byte("on-world")); err != nil {
				return err
			}
			if err := s.SendTo("b", 0, tag, []byte("on-mph")); err != nil {
				return err
			}
		}
		if c.Rank() == 2 {
			got, _, err := s.RecvFrom("a", 0, tag)
			if err != nil {
				return err
			}
			if string(got) != "on-mph" {
				return fmt.Errorf("RecvFrom got %q", got)
			}
			world, _, err := c.Recv(0, tag)
			if err != nil {
				return err
			}
			if string(world) != "on-world" {
				return fmt.Errorf("world recv got %q", world)
			}
		}
		return nil
	})
}

func TestRecvAnyIdentifiesSender(t *testing.T) {
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		const tag = 77
		if s.CompName() == "ice" { // single rank, world 8
			return s.SendTo("coupler", 0, tag, []byte("ice-report"))
		}
		if s.CompName() == "coupler" {
			data, comp, local, err := s.RecvAny(tag)
			if err != nil {
				return err
			}
			if string(data) != "ice-report" || comp != "ice" || local != 0 {
				return fmt.Errorf("got %q from %s/%d", data, comp, local)
			}
		}
		return nil
	})
}

func TestWorldRankOf(t *testing.T) {
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		wr, err := s.WorldRankOf("land", 1)
		if err != nil || wr != 7 {
			return fmt.Errorf("WorldRankOf(land,1) = %d, %v", wr, err)
		}
		if _, err := s.WorldRankOf("land", 2); err == nil {
			return fmt.Errorf("out-of-range local id accepted")
		}
		if _, err := s.WorldRankOf("unknown", 0); !errors.Is(err, core.ErrUnknownComponent) {
			return fmt.Errorf("unknown component: %v", err)
		}
		if _, err := s.ComponentSize("unknown"); !errors.Is(err, core.ErrUnknownComponent) {
			return fmt.Errorf("ComponentSize unknown: %v", err)
		}
		n, err := s.ComponentSize("atmosphere")
		if err != nil || n != 3 {
			return fmt.Errorf("ComponentSize(atmosphere) = %d, %v", n, err)
		}
		return nil
	})
}

func TestCommOfMembership(t *testing.T) {
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		mine := s.CompName()
		if comm, ok := s.ProcInComponent(mine); !ok || comm.Rank() != s.LocalProcID() {
			return fmt.Errorf("ProcInComponent(%s) = %v, %v: not this rank's component communicator", mine, comm, ok)
		}
		other := "ocean"
		if mine == "ocean" {
			other = "atmosphere"
		}
		for _, name := range []string{other, "bogus"} {
			if comm, ok := s.ProcInComponent(name); ok || comm != nil {
				return fmt.Errorf("ProcInComponent(%s) = %v, %v on a non-member", name, comm, ok)
			}
		}
		return nil
	})
}

func TestAllComponentNames(t *testing.T) {
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		names := s.AllComponentNames()
		if len(names) != 5 {
			return fmt.Errorf("names %v", names)
		}
		// Sorted.
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				return fmt.Errorf("not sorted: %v", names)
			}
		}
		return nil
	})
}
