// MCME: the paper's most general mode (§2.4, §4.3) — several executables,
// each holding several components — reproduced with the section's exact
// three-executable layout:
//
//	executable 1: atmosphere + land (completely overlapping) + chemistry
//	executable 2: ocean + ice
//	executable 3: coupler (single component)
//
// Each model component computes a scalar diagnostic and reports it to the
// coupler by component name; overlapped components time-share their
// processors and are distinguished by message tags (§4.2's advice).
//
// In-process (default, 14 ranks):
//
//	go run ./examples/mcme
//
// As a true three-executable MPMD job:
//
//	go build -o /tmp/mcme ./examples/mcme
//	cat > /tmp/mcme.cmd <<'EOF'
//	6 /tmp/mcme -exe atm-land-chem
//	7 /tmp/mcme -exe ocean-ice
//	1 /tmp/mcme -exe coupler
//	EOF
//	go run ./cmd/mphrun -cmdfile /tmp/mcme.cmd
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"mph/internal/bootstrap"
	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
)

// The §4.3 registration file, shrunk from 20/32 to 6/7 processors so the
// in-process default stays small. Executable-local ranges; atmosphere and
// land overlap completely.
const registration = `
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

// Component report tags (overlap disambiguation per §4.2).
const (
	tagAtm = 1 + iota
	tagLand
	tagChem
	tagOcn
	tagIce
)

var reports = []struct {
	name string
	tag  int
}{
	{"atmosphere", tagAtm},
	{"land", tagLand},
	{"chemistry", tagChem},
	{"ocean", tagOcn},
	{"ice", tagIce},
}

func main() {
	exe := flag.String("exe", "", "executable role under mphrun: atm-land-chem | ocean-ice | coupler")
	flag.Parse()

	var mu sync.Mutex
	say := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf(format+"\n", args...)
	}

	var err error
	if bootstrap.Launched() {
		err = runDistributed(*exe, say)
	} else {
		err = runInProcess(say)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcme:", err)
		os.Exit(1)
	}
}

// setupNames maps an executable role to its setup call's component names —
// the literal MPH_components_setup calls of §4.3.
func setupNames(exe string) ([]string, error) {
	switch exe {
	case "atm-land-chem":
		return []string{"atmosphere", "land", "chemistry"}, nil
	case "ocean-ice":
		return []string{"ocean", "ice"}, nil
	case "coupler":
		return []string{"coupler"}, nil
	default:
		return nil, fmt.Errorf("unknown executable role %q", exe)
	}
}

func runDistributed(exe string, say func(string, ...any)) error {
	names, err := setupNames(exe)
	if err != nil {
		return err
	}
	env, regPath, err := tcpnet.InitFromEnv()
	if err != nil {
		return err
	}
	defer env.Close()
	world := mpi.WorldComm(env)
	src := core.TextSource(registration)
	if regPath != "" {
		src = core.FileSource(regPath)
	}
	s, err := core.ComponentsSetup(world, src, names)
	if err != nil {
		return err
	}
	if err := body(s, say); err != nil {
		return err
	}
	return world.Barrier()
}

func runInProcess(say func(string, ...any)) error {
	// Launch plan: exec0 ranks 0-5, exec1 ranks 6-12, coupler rank 13.
	return mpi.RunWorld(14, func(c *mpi.Comm) error {
		exe := "atm-land-chem"
		switch {
		case c.Rank() >= 13:
			exe = "coupler"
		case c.Rank() >= 6:
			exe = "ocean-ice"
		}
		names, err := setupNames(exe)
		if err != nil {
			return err
		}
		s, err := core.ComponentsSetup(c, core.TextSource(registration), names)
		if err != nil {
			return err
		}
		return body(s, say)
	})
}

// body is the component work shared by both launch modes: each component
// computes a parallel diagnostic on its own communicator and its root
// reports it; the coupler collects all five.
func body(s *core.Setup, say func(string, ...any)) error {
	for _, r := range reports {
		comm, ok := s.ProcInComponent(r.name)
		if !ok {
			continue
		}
		// Toy diagnostic: sum of squares of component-local ranks.
		v := float64(comm.Rank() * comm.Rank())
		total, err := comm.AllreduceFloats([]float64{v}, mpi.OpSum)
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			say("%-11s %d ranks (world %d..%d), diagnostic %.0f",
				r.name, comm.Size(), s.ExeLowProcLimit(), s.ExeUpProcLimit(), total[0])
			if err := s.SendFloatsTo("coupler", 0, r.tag, total); err != nil {
				return err
			}
		}
	}

	if comm, ok := s.ProcInComponent("coupler"); ok && comm.Rank() == 0 {
		for _, r := range reports {
			if r.name == "coupler" {
				continue
			}
			vals, _, err := s.RecvFloatsFrom(r.name, 0, r.tag)
			if err != nil {
				return err
			}
			say("coupler <- %-11s %.0f", r.name, vals[0])
		}
	}
	return nil
}
