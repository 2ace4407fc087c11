package core_test

import (
	"errors"
	"fmt"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// mimeReg is the paper's §4.4 example shrunk: three Ocean instances with
// per-instance argument strings, plus a statistics executable.
const mimeReg = `
BEGIN
Multi_Instance_Begin ! a multi-instance exec
Ocean1 0 1 inf1 outf1 logf1 alpha=3 debug=on
Ocean2 2 3 inf2 outf2 beta=4.5 debug=off
Ocean3 4 5 inf3 dynamics=finite_volume
Multi_Instance_End
statistics ! a single-component exec
END
`

// mimeWorldSize: 6 ocean ranks + 1 statistics rank.
const mimeWorldSize = 7

// mimeSetup performs the per-rank setup for the MIME scenario: ranks 0-5
// are the replicated Ocean executable, rank 6 is statistics.
func mimeSetup(c *mpi.Comm) (*core.Setup, error) {
	src := core.TextSource(mimeReg)
	if c.Rank() < 6 {
		return core.MultiInstance(c, src, "Ocean")
	}
	return core.SingleComponentSetup(c, src, "statistics")
}

func TestMultiInstanceHandshake(t *testing.T) {
	mpitest.Run(t, mimeWorldSize, func(c *mpi.Comm) error {
		s, err := mimeSetup(c)
		if err != nil {
			return err
		}
		if c.Rank() == 6 {
			if s.CompName() != "statistics" || s.InstanceIndex() != -1 || s.NumInstances() != 1 {
				return fmt.Errorf("statistics: %q %d %d", s.CompName(), s.InstanceIndex(), s.NumInstances())
			}
			return nil
		}
		wantIdx := c.Rank() / 2
		wantName := fmt.Sprintf("Ocean%d", wantIdx+1)
		if s.InstanceIndex() != wantIdx {
			return fmt.Errorf("rank %d instance %d, want %d", c.Rank(), s.InstanceIndex(), wantIdx)
		}
		if s.CompName() != wantName {
			return fmt.Errorf("rank %d name %q, want %q", c.Rank(), s.CompName(), wantName)
		}
		if s.NumInstances() != 3 {
			return fmt.Errorf("NumInstances %d", s.NumInstances())
		}
		comm, ok := s.ProcInComponent(wantName)
		if !ok || comm.Size() != 2 || comm.Rank() != c.Rank()%2 {
			return fmt.Errorf("instance comm wrong: ok=%v", ok)
		}
		// Each instance's communicator is isolated: an allreduce counts
		// only the instance's own ranks.
		sum, err := comm.AllreduceInts([]int64{1}, mpi.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 2 {
			return fmt.Errorf("instance allreduce %d", sum[0])
		}
		// The shared executable communicator spans all instances — that is
		// what MPH_multi_instance returns ("Ocean_world").
		if s.ExecWorld().Size() != 6 {
			return fmt.Errorf("exec world %d", s.ExecWorld().Size())
		}
		return nil
	})
}

func TestMultiInstanceArguments(t *testing.T) {
	// Paper §4.4: the same executable image reads different inputs,
	// outputs, and parameters per instance through MPH_get_argument.
	mpitest.Run(t, mimeWorldSize, func(c *mpi.Comm) error {
		s, err := mimeSetup(c)
		if err != nil {
			return err
		}
		if c.Rank() >= 6 {
			if f, ok := s.Args().Field(1); ok {
				return fmt.Errorf("statistics has args, the first %q", f)
			}
			return nil
		}
		switch s.InstanceIndex() {
		case 0:
			alpha, ok, err := s.GetArgumentInt("alpha")
			if err != nil || !ok || alpha != 3 {
				return fmt.Errorf("alpha = %d, %v, %v", alpha, ok, err)
			}
			dbg, ok, err := s.GetArgumentBool("debug")
			if err != nil || !ok || !dbg {
				return fmt.Errorf("debug = %v, %v, %v", dbg, ok, err)
			}
			if f, ok := s.GetArgumentField(1); !ok || f != "inf1" {
				return fmt.Errorf("field 1 = %q, %v", f, ok)
			}
		case 1:
			beta, ok, err := s.GetArgumentFloat("beta")
			if err != nil || !ok || beta != 4.5 {
				return fmt.Errorf("beta = %g, %v, %v", beta, ok, err)
			}
			dbg, ok, err := s.GetArgumentBool("debug")
			if err != nil || !ok || dbg {
				return fmt.Errorf("debug = %v, %v, %v", dbg, ok, err)
			}
		case 2:
			dyn, ok := s.GetArgumentString("dynamics")
			if !ok || dyn != "finite_volume" {
				return fmt.Errorf("dynamics = %q, %v", dyn, ok)
			}
			if _, ok, _ := s.GetArgumentInt("alpha"); ok {
				return fmt.Errorf("instance 3 sees instance 1's alpha")
			}
		}
		return nil
	})
}

func TestMultiComponentArguments(t *testing.T) {
	// Paper §4.4: "this parameter passing feature also works for the
	// components of multi-component executables."
	reg := `
BEGIN
Multi_Component_Begin
physics  0 1 grid=fine
dynamics 2 3 scheme=leapfrog
Multi_Component_End
END
`
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, core.TextSource(reg), []string{"physics", "dynamics"})
		if err != nil {
			return err
		}
		if c.Rank() < 2 {
			v, ok := s.GetArgumentString("grid")
			if !ok || v != "fine" {
				return fmt.Errorf("grid = %q, %v", v, ok)
			}
		} else {
			v, ok := s.GetArgumentString("scheme")
			if !ok || v != "leapfrog" {
				return fmt.Errorf("scheme = %q, %v", v, ok)
			}
		}
		return nil
	})
}

func TestMultiInstanceEnsembleExchange(t *testing.T) {
	// The paper's motivating pattern: a statistics component collects an
	// instantaneous field from every instance's root and aggregates it.
	mpitest.Run(t, mimeWorldSize, func(c *mpi.Comm) error {
		s, err := mimeSetup(c)
		if err != nil {
			return err
		}
		const tag = 42
		if c.Rank() < 6 {
			comm, _ := s.ProcInComponent(s.CompName())
			if comm.Rank() == 0 {
				val := float64(s.InstanceIndex() + 1) // 1, 2, 3
				return s.SendFloatsTo("statistics", 0, tag, []float64{val})
			}
			return nil
		}
		sum := 0.0
		for i := 0; i < 3; i++ {
			xs, _, _, err := recvFloatsAny(s, tag)
			if err != nil {
				return err
			}
			sum += xs[0]
		}
		if sum != 6 {
			return fmt.Errorf("ensemble sum %g, want 6", sum)
		}
		return nil
	})
}

func recvFloatsAny(s *core.Setup, tag int) ([]float64, string, int, error) {
	data, comp, local, err := s.RecvAny(tag)
	if err != nil {
		return nil, "", 0, err
	}
	xs, err := mpi.DecodeFloats(data)
	return xs, comp, local, err
}

func TestMultiInstanceErrors(t *testing.T) {
	t.Run("unknown prefix", func(t *testing.T) {
		mpitest.Run(t, 2, func(c *mpi.Comm) error {
			reg := "BEGIN\nMulti_Instance_Begin\nO1 0 0\nO2 1 1\nMulti_Instance_End\nEND\n"
			_, err := core.MultiInstance(c, core.TextSource(reg), "Xyz")
			if err == nil {
				return fmt.Errorf("unknown prefix accepted")
			}
			if c.Rank() == 0 && !errors.Is(err, core.ErrNoSuchExecutable) &&
				!errors.Is(err, core.ErrHandshake) {
				return fmt.Errorf("unexpected error: %v", err)
			}
			return nil
		})
	})
	t.Run("empty prefix", func(t *testing.T) {
		mpitest.Run(t, 2, func(c *mpi.Comm) error {
			reg := "BEGIN\nMulti_Instance_Begin\nO1 0 0\nO2 1 1\nMulti_Instance_End\nEND\n"
			if _, err := core.MultiInstance(c, core.TextSource(reg), ""); err == nil {
				return fmt.Errorf("empty prefix accepted")
			}
			return nil
		})
	})
	t.Run("coverage gap", func(t *testing.T) {
		// Instances cover ranks 0 and 2 of a 3-rank executable; rank 1 has
		// no instance, which is an error for a replicated executable.
		mpitest.Run(t, 3, func(c *mpi.Comm) error {
			reg := "BEGIN\nMulti_Instance_Begin\nO1 0 0\nO2 2 2\nMulti_Instance_End\nEND\n"
			if _, err := core.MultiInstance(c, core.TextSource(reg), "O"); err == nil {
				return fmt.Errorf("coverage gap accepted")
			}
			return nil
		})
	})
	t.Run("size mismatch", func(t *testing.T) {
		mpitest.Run(t, 5, func(c *mpi.Comm) error {
			reg := "BEGIN\nMulti_Instance_Begin\nO1 0 1\nO2 2 3\nMulti_Instance_End\nEND\n"
			if _, err := core.MultiInstance(c, core.TextSource(reg), "O"); err == nil {
				return fmt.Errorf("size mismatch accepted")
			}
			return nil
		})
	})
}

func TestManyInstances(t *testing.T) {
	// "There is no limit of the number of instances in this type of
	// executables" (§4.4) — well beyond the 10-component executable limit.
	const k = 16
	reg := "BEGIN\nMulti_Instance_Begin\n"
	for i := 0; i < k; i++ {
		reg += fmt.Sprintf("ens%02d %d %d member=%d\n", i, i, i, i)
	}
	reg += "Multi_Instance_End\nEND\n"
	mpitest.Run(t, k, func(c *mpi.Comm) error {
		s, err := core.MultiInstance(c, core.TextSource(reg), "ens")
		if err != nil {
			return err
		}
		if s.NumInstances() != k || s.InstanceIndex() != c.Rank() {
			return fmt.Errorf("instances %d idx %d", s.NumInstances(), s.InstanceIndex())
		}
		m, ok, err := s.GetArgumentInt("member")
		if err != nil || !ok || m != c.Rank() {
			return fmt.Errorf("member = %d, %v, %v", m, ok, err)
		}
		return nil
	})
}
