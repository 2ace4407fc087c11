// PCM: the multi-component single-executable mode (MCSE, paper §2.2 and
// §4.2) as used by the Parallel Climate Model — all components compiled
// into one program, a master routine dispatching each onto its processor
// subset with PROC_in_component, including two components that deliberately
// overlap on processors (physics and chemistry time-share their ranks,
// running one after another).
//
// Run:
//
//	go run ./examples/pcm -ranks 9
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"mph/internal/core"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
)

// The registration file: atmosphere on 0-3 carries a chemistry module on
// the same processors (complete overlap, handled by repeated Comm_split in
// the handshake, §6), ocean on 4-7, coupler on 8.
// Report tags: overlapping components (atmosphere and chemistry share
// processors 0-3) are distinguished by tag, per the paper's recommendation.
const (
	tagAtm  = 1
	tagChem = 2
	tagOcn  = 3
)

const registration = `
BEGIN
Multi_Component_Begin
atmosphere 0 3 scheme=spectral
chemistry  0 3 tracers=3
ocean      4 7 scheme=finite_volume
coupler    8 8
Multi_Component_End
END
`

func main() {
	ranks := flag.Int("ranks", 9, "world size (must be 9: the registration file fixes it)")
	steps := flag.Int("steps", 10, "model steps")
	flag.Parse()
	if *ranks != 9 {
		fmt.Fprintln(os.Stderr, "pcm: the registration file lays out exactly 9 processors")
		os.Exit(1)
	}

	var mu sync.Mutex
	say := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf(format+"\n", args...)
	}

	g, err := grid.New(16, 8)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	err = mpi.RunWorld(*ranks, func(c *mpi.Comm) error {
		// The master program: every rank makes the same setup call naming
		// all components of the (single) executable.
		s, err := core.ComponentsSetup(c, core.TextSource(registration),
			[]string{"atmosphere", "chemistry", "ocean", "coupler"})
		if err != nil {
			return err
		}

		// The paper's dispatch pattern:
		//
		//	if (PROC_in_component("ocean", comm)) call ocean_xyz(comm)
		//
		// Components sharing processors run sequentially on them.
		// Overlapped components report under distinct tags, as the paper
		// recommends for processor-sharing components (§4.2).
		if comm, ok := s.ProcInComponent("atmosphere"); ok {
			if err := runModel(say, s, "atmosphere", comm, g, *steps, tagAtm, model.NewAtmosphere); err != nil {
				return err
			}
		}
		if comm, ok := s.ProcInComponent("chemistry"); ok {
			if err := runChemistry(say, s, comm, *steps); err != nil {
				return err
			}
		}
		if comm, ok := s.ProcInComponent("ocean"); ok {
			if err := runModel(say, s, "ocean", comm, g, *steps, tagOcn, model.NewOcean); err != nil {
				return err
			}
		}
		if comm, ok := s.ProcInComponent("coupler"); ok {
			if err := runCoupler(say, s, comm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcm: %v\n", err)
		os.Exit(1)
	}
}

// runModel advances one diffusive component and reports to the coupler.
func runModel(say func(string, ...any), s *core.Setup, name string, comm *mpi.Comm,
	g grid.Grid, steps, tag int, build func(*mpi.Comm, *grid.Decomp) (*model.SurfaceModel, error)) error {

	decomp, err := grid.NewDecomp(g, comm.Size())
	if err != nil {
		return err
	}
	m, err := build(comm, decomp)
	if err != nil {
		return err
	}
	if err := m.StepN(steps, 0.5); err != nil {
		return err
	}
	mean, err := m.GlobalMean()
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		args, _ := s.ArgsOf(name)
		scheme, _ := args.String("scheme")
		say("%-10s (%d ranks, scheme=%s): mean after %d steps = %.3f",
			name, comm.Size(), scheme, steps, mean)
		return s.SendFloatsTo("coupler", 0, tag, []float64{mean})
	}
	return nil
}

// runChemistry is the overlapped component: it runs on the atmosphere's
// processors after the atmosphere finishes (time-sharing, §2.2).
func runChemistry(say func(string, ...any), s *core.Setup, comm *mpi.Comm, steps int) error {
	args, err := s.ArgsOf("chemistry")
	if err != nil {
		return err
	}
	tracers, ok, err := args.Int("tracers")
	if err != nil || !ok {
		return fmt.Errorf("chemistry: tracers argument: %v", err)
	}
	// A toy tracer decay integrated in parallel: each rank owns a share of
	// the tracer mass; the total decays exponentially.
	mass := 100.0 / float64(comm.Size())
	for i := 0; i < steps*tracers; i++ {
		mass *= 0.99
	}
	total, err := comm.AllreduceFloats([]float64{mass}, mpi.OpSum)
	if err != nil {
		return err
	}
	if comm.Rank() == 0 {
		say("%-10s (%d ranks, %d tracers): total mass after decay = %.3f",
			"chemistry", comm.Size(), tracers, total[0])
		return s.SendFloatsTo("coupler", 0, tagChem, []float64{total[0]})
	}
	return nil
}

// runCoupler gathers one scalar report from each computing component.
func runCoupler(say func(string, ...any), s *core.Setup, comm *mpi.Comm) error {
	if comm.Rank() != 0 {
		return nil
	}
	reports := []struct {
		name string
		tag  int
	}{
		{"atmosphere", tagAtm},
		{"chemistry", tagChem},
		{"ocean", tagOcn},
	}
	for _, r := range reports {
		vals, _, err := s.RecvFloatsFrom(r.name, 0, r.tag)
		if err != nil {
			return err
		}
		say("%-10s received report from %s: %.3f", "coupler", r.name, vals[0])
	}
	return nil
}
