package core_test

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// scmeReg is the paper's §4.1 example scaled down: five single-component
// executables. World size 10 gives atmosphere ranks 0-2, ocean 3-5, land
// 6-7, ice 8, coupler 9 under the launch plan below.
const scmeReg = `
BEGIN
atmosphere
ocean
land
ice
coupler
END
`

// scmeLaunch maps world rank -> component for the SCME tests, standing in
// for the MPMD launcher's rank-block assignment.
func scmeLaunch(worldRank int) string {
	switch {
	case worldRank < 3:
		return "atmosphere"
	case worldRank < 6:
		return "ocean"
	case worldRank < 8:
		return "land"
	case worldRank < 9:
		return "ice"
	default:
		return "coupler"
	}
}

const scmeWorldSize = 10

// mcseReg is the paper's §4.2 example shrunk to 9 processors.
const mcseReg = `
BEGIN
Multi_Component_Begin
atmosphere 0 3
ocean 4 7
coupler 8 8
Multi_Component_End
END
`

// mcmeReg is the paper's §4.3 example shrunk: executable 0 holds
// atmosphere/land (fully overlapping) and chemistry; executable 1 holds
// ocean and ice; executable 2 is a bare coupler.
const mcmeReg = `
BEGIN
Multi_Component_Begin ! 1st multi-comp exec
atmosphere 0 3
land       0 3       ! overlap with atm
chemistry  4 5
Multi_Component_End
Multi_Component_Begin ! 2nd multi-comp exec
ocean 0 3
ice   4 6
Multi_Component_End
coupler               ! a single-comp exec
END
`

// mcmeWorldSize: exec0 needs 6, exec1 needs 7, coupler gets 1.
const mcmeWorldSize = 14

// mcmeSetup performs the per-rank setup calls for the MCME scenario.
func mcmeSetup(c *mpi.Comm, opts ...core.Option) (*core.Setup, error) {
	src := core.TextSource(mcmeReg)
	switch {
	case c.Rank() < 6:
		return core.ComponentsSetup(c, src, []string{"atmosphere", "land", "chemistry"}, opts...)
	case c.Rank() < 13:
		return core.ComponentsSetup(c, src, []string{"ocean", "ice"}, opts...)
	default:
		return core.SingleComponentSetup(c, src, "coupler", opts...)
	}
}

func TestSCMEHandshake(t *testing.T) {
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		name := scmeLaunch(c.Rank())
		s, err := core.SingleComponentSetup(c, core.TextSource(scmeReg), name)
		if err != nil {
			return err
		}

		if s.CompName() != name {
			return fmt.Errorf("CompName %q, want %q", s.CompName(), name)
		}
		if s.GlobalProcID() != c.Rank() {
			return fmt.Errorf("GlobalProcID %d", s.GlobalProcID())
		}
		if s.TotalComponents() != 5 || s.NumExecutables() != 5 {
			return fmt.Errorf("counts %d/%d", s.TotalComponents(), s.NumExecutables())
		}
		comm, ok := s.ProcInComponent(name)
		if !ok {
			return fmt.Errorf("not in own component")
		}
		// The component communicator must contain exactly the ranks the
		// launcher gave this component, in world order.
		wantSize := map[string]int{"atmosphere": 3, "ocean": 3, "land": 2, "ice": 1, "coupler": 1}[name]
		if comm.Size() != wantSize {
			return fmt.Errorf("%s comm size %d, want %d", name, comm.Size(), wantSize)
		}
		if s.LocalProcID() != comm.Rank() {
			return fmt.Errorf("LocalProcID %d != comm rank %d", s.LocalProcID(), comm.Rank())
		}
		// Executable == component in SCME, so the exec world is the same
		// size.
		if s.ExecWorld().Size() != wantSize {
			return fmt.Errorf("exec world size %d", s.ExecWorld().Size())
		}
		// Layout is global knowledge: every rank can ask about any
		// component.
		oceanRanks, err := s.ComponentRanks("ocean")
		if err != nil {
			return err
		}
		if len(oceanRanks) != 3 || oceanRanks[0] != 3 || oceanRanks[2] != 5 {
			return fmt.Errorf("ocean ranks %v", oceanRanks)
		}
		return nil
	})
}

func TestSCSEDegenerateSingleExecutable(t *testing.T) {
	// SCSE (paper §2.1): one component, one executable — the conventional
	// mode, handled by the same interface.
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource("BEGIN\nmodel\nEND\n"), "model")
		if err != nil {
			return err
		}
		if s.CompName() != "model" || s.TotalComponents() != 1 {
			return fmt.Errorf("%q/%d", s.CompName(), s.TotalComponents())
		}
		comm, _ := s.ProcInComponent("model")
		if comm.Size() != 4 || comm.Rank() != c.Rank() {
			return fmt.Errorf("comm %d/%d", comm.Rank(), comm.Size())
		}
		return nil
	})
}

func TestMCSEHandshake(t *testing.T) {
	// MCSE (paper §4.2): a single executable holds every component; the
	// master program gates component subroutines with PROC_in_component.
	mpitest.Run(t, 9, func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, core.TextSource(mcseReg),
			[]string{"atmosphere", "ocean", "coupler"})
		if err != nil {
			return err
		}
		if s.ExecWorld().Size() != 9 {
			return fmt.Errorf("exec world size %d", s.ExecWorld().Size())
		}
		var want string
		switch {
		case c.Rank() < 4:
			want = "atmosphere"
		case c.Rank() < 8:
			want = "ocean"
		default:
			want = "coupler"
		}
		comm, ok := s.ProcInComponent(want)
		if !ok {
			return fmt.Errorf("rank %d not in %s", c.Rank(), want)
		}
		for _, other := range []string{"atmosphere", "ocean", "coupler"} {
			if other == want {
				continue
			}
			if _, ok := s.ProcInComponent(other); ok {
				return fmt.Errorf("rank %d unexpectedly in %s", c.Rank(), other)
			}
		}
		if s.CompName() != want {
			return fmt.Errorf("CompName %q", s.CompName())
		}
		// Component communicator ranks follow world order within the
		// component's block.
		wantLocal := map[string]int{"atmosphere": c.Rank(), "ocean": c.Rank() - 4, "coupler": 0}[want]
		if comm.Rank() != wantLocal {
			return fmt.Errorf("local rank %d, want %d", comm.Rank(), wantLocal)
		}
		return nil
	})
}

func TestMCMEHandshakeWithOverlap(t *testing.T) {
	// MCME (paper §4.3): three executables, components atmosphere and land
	// completely overlapping inside the first.
	mpitest.Run(t, mcmeWorldSize, func(c *mpi.Comm) error {
		s, err := mcmeSetup(c)
		if err != nil {
			return err
		}
		switch {
		case c.Rank() < 4: // atmosphere+land overlap ranks 0-3 of exec 0
			names := s.ComponentNames()
			if len(names) != 2 || names[0] != "atmosphere" || names[1] != "land" {
				return fmt.Errorf("overlap membership %v", names)
			}
			if s.CompName() != "atmosphere" { // primary = registry order
				return fmt.Errorf("primary %q", s.CompName())
			}
			atm, _ := s.ProcInComponent("atmosphere")
			land, _ := s.ProcInComponent("land")
			if atm.Size() != 4 || land.Size() != 4 {
				return fmt.Errorf("overlap comm sizes %d/%d", atm.Size(), land.Size())
			}
			if atm.Rank() != land.Rank() || atm.Rank() != c.Rank() {
				return fmt.Errorf("overlap ranks %d/%d", atm.Rank(), land.Rank())
			}
			// The two overlapping communicators must be isolated: a message
			// on atmosphere must not be received on land.
			if atm.Context() == land.Context() {
				return fmt.Errorf("atmosphere and land share a context")
			}
		case c.Rank() < 6: // chemistry
			if s.CompName() != "chemistry" {
				return fmt.Errorf("rank %d: %q", c.Rank(), s.CompName())
			}
			chem, _ := s.ProcInComponent("chemistry")
			if chem.Size() != 2 || chem.Rank() != c.Rank()-4 {
				return fmt.Errorf("chemistry comm %d/%d", chem.Rank(), chem.Size())
			}
		case c.Rank() < 10: // ocean
			if s.CompName() != "ocean" {
				return fmt.Errorf("rank %d: %q", c.Rank(), s.CompName())
			}
		case c.Rank() < 13: // ice
			if s.CompName() != "ice" {
				return fmt.Errorf("rank %d: %q", c.Rank(), s.CompName())
			}
		default: // coupler
			if s.CompName() != "coupler" {
				return fmt.Errorf("rank %d: %q", c.Rank(), s.CompName())
			}
			if s.ExeLowProcLimit() != 13 || s.ExeUpProcLimit() != 13 {
				return fmt.Errorf("coupler limits %d..%d", s.ExeLowProcLimit(), s.ExeUpProcLimit())
			}
		}
		// Executable processor limits (paper §5.3).
		if c.Rank() < 6 {
			if s.ExeLowProcLimit() != 0 || s.ExeUpProcLimit() != 5 {
				return fmt.Errorf("exec 0 limits %d..%d", s.ExeLowProcLimit(), s.ExeUpProcLimit())
			}
		} else if c.Rank() < 13 {
			if s.ExeLowProcLimit() != 6 || s.ExeUpProcLimit() != 12 {
				return fmt.Errorf("exec 1 limits %d..%d", s.ExeLowProcLimit(), s.ExeUpProcLimit())
			}
		}
		return nil
	})
}

func TestOverlappingComponentContextIsolation(t *testing.T) {
	// Send on atmosphere, then on land, between the same pair of overlap
	// ranks with the same tag: each communicator must deliver its own.
	mpitest.Run(t, mcmeWorldSize, func(c *mpi.Comm) error {
		s, err := mcmeSetup(c)
		if err != nil {
			return err
		}
		if c.Rank() >= 4 {
			return nil
		}
		atm, _ := s.ProcInComponent("atmosphere")
		land, _ := s.ProcInComponent("land")
		if atm.Rank() == 0 {
			if err := atm.Send(1, 0, []byte("on-atm")); err != nil {
				return err
			}
			if err := land.Send(1, 0, []byte("on-land")); err != nil {
				return err
			}
		}
		if atm.Rank() == 1 {
			// Receive land first even though atm was sent first.
			got, _, err := land.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(got) != "on-land" {
				return fmt.Errorf("land got %q", got)
			}
			got, _, err = atm.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(got) != "on-atm" {
				return fmt.Errorf("atm got %q", got)
			}
		}
		return nil
	})
}

func TestArbitraryComponentNames(t *testing.T) {
	// Paper §4.1: "its actual name is entirely arbitrary. One may use
	// NCAR_atm, or UCLA_atm" — nothing is hard-coded.
	reg := "BEGIN\nNCAR_atm\nUCLA_ocn\nEND\n"
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		name := "NCAR_atm"
		if c.Rank() >= 2 {
			name = "UCLA_ocn"
		}
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
		if err != nil {
			return err
		}
		if s.CompName() != name {
			return fmt.Errorf("%q", s.CompName())
		}
		return nil
	})
}

func TestInsertedComponent(t *testing.T) {
	// Paper §4.1: adding a visualization component is just one more line in
	// the registration file. Same code, bigger file.
	reg := "BEGIN\natmosphere\nocean\ngraphics\nEND\n"
	mpitest.Run(t, 5, func(c *mpi.Comm) error {
		var name string
		switch {
		case c.Rank() < 2:
			name = "atmosphere"
		case c.Rank() < 4:
			name = "ocean"
		default:
			name = "graphics"
		}
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
		if err != nil {
			return err
		}
		if s.TotalComponents() != 3 {
			return fmt.Errorf("TotalComponents %d", s.TotalComponents())
		}
		gr, err := s.ComponentRanks("graphics")
		if err != nil {
			return err
		}
		if len(gr) != 1 || gr[0] != 4 {
			return fmt.Errorf("graphics ranks %v", gr)
		}
		return nil
	})
}

func TestSetupErrorsUnknownExecutable(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		name := "atmosphere"
		if c.Rank() == 1 {
			name = "no-such-component"
		}
		_, err := core.SingleComponentSetup(c, core.TextSource("BEGIN\natmosphere\nocean\nEND\n"), name)
		if err == nil {
			return fmt.Errorf("rank %d: setup succeeded", c.Rank())
		}
		// Rank 1 sees its own resolution error; rank 0 sees the
		// coordinated abort. Also, "ocean" has no ranks — but the abort
		// fires before layout validation.
		if c.Rank() == 1 && !errors.Is(err, core.ErrNoSuchExecutable) {
			return fmt.Errorf("rank 1 error: %v", err)
		}
		return nil
	})
}

func TestSetupErrorsMissingComponentRanks(t *testing.T) {
	// A component listed in the file but launched with no ranks must fail
	// layout validation on every rank.
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		_, err := core.SingleComponentSetup(c, core.TextSource("BEGIN\natmosphere\nocean\nEND\n"), "atmosphere")
		if err == nil {
			return fmt.Errorf("setup succeeded with unlaunched component")
		}
		return nil
	})
}

func TestSetupErrorsSizeMismatch(t *testing.T) {
	// Registration file says the executable needs 9 processors; launch
	// provides 5.
	mpitest.Run(t, 5, func(c *mpi.Comm) error {
		_, err := core.ComponentsSetup(c, core.TextSource(mcseReg),
			[]string{"atmosphere", "ocean", "coupler"})
		if err == nil {
			return fmt.Errorf("setup succeeded with wrong world size")
		}
		if !errors.Is(err, core.ErrLayout) && !errors.Is(err, core.ErrHandshake) {
			return fmt.Errorf("unexpected error: %v", err)
		}
		return nil
	})
}

func TestSetupErrorsMalformedFile(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		_, err := core.SingleComponentSetup(c, core.TextSource("not a registration file"), "x")
		if err == nil {
			return fmt.Errorf("malformed file accepted")
		}
		return nil
	})
}

func TestSetupErrorsEmptySource(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		_, err := core.SingleComponentSetup(c, core.TextSource(""), "x")
		if err == nil {
			return fmt.Errorf("empty source accepted")
		}
		return nil
	})
}

func TestSetupRejectsMultiInstanceViaComponentsSetup(t *testing.T) {
	reg := "BEGIN\nMulti_Instance_Begin\nO1 0 0\nO2 1 1\nMulti_Instance_End\nEND\n"
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		_, err := core.ComponentsSetup(c, core.TextSource(reg), []string{"O1", "O2"})
		if err == nil {
			return fmt.Errorf("ComponentsSetup accepted a multi-instance entry")
		}
		return nil
	})
}

func TestFileSourceRootOnly(t *testing.T) {
	// Only rank 0 loads the source; other ranks may name a bogus path.
	dir := t.TempDir()
	path := dir + "/processors_map.in"
	if err := writeFile(path, scmeReg); err != nil {
		t.Fatal(err)
	}
	mpitest.Run(t, scmeWorldSize, func(c *mpi.Comm) error {
		src := core.FileSource(path)
		if c.Rank() != 0 {
			src = core.FileSource(dir + "/does-not-exist")
		}
		s, err := core.SingleComponentSetup(c, src, scmeLaunch(c.Rank()))
		if err != nil {
			return err
		}
		if s.TotalComponents() != 5 {
			return fmt.Errorf("TotalComponents %d", s.TotalComponents())
		}
		return nil
	})
}

func TestFileSourceMissingFile(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		_, err := core.SingleComponentSetup(c, core.FileSource(t.TempDir()+"/missing"), "x")
		if err == nil {
			return fmt.Errorf("missing file accepted")
		}
		return nil
	})
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
