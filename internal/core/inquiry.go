package core

import (
	"fmt"
	"sort"

	"mph/internal/mpi"
	"mph/internal/registry"
)

// The inquiry functions of paper §5.3: at run time a component calls these
// to find out the processor configuration, component name, and so on.

// CompName is MPH_comp_name: the name of the component this rank belongs
// to. For a rank covered by several overlapping components it is the first
// in registration-file order; for a rank covered by none it is "".
func (s *Setup) CompName() string {
	if len(s.mine) == 0 {
		return ""
	}
	return s.mine[0].Name
}

// ComponentNames returns every component covering this rank, in
// registration-file order.
func (s *Setup) ComponentNames() []string {
	names := make([]string, len(s.mine))
	for i, c := range s.mine {
		names[i] = c.Name
	}
	return names
}

// LocalProcID is MPH_local_proc_id: this rank's rank within its (primary)
// component communicator. It is -1 for a rank covered by no component.
func (s *Setup) LocalProcID() int {
	if len(s.mine) == 0 {
		return -1
	}
	return s.comms[s.mine[0].Name].Rank()
}

// GlobalProcID is MPH_global_proc_id: this rank's rank in the world
// communicator.
func (s *Setup) GlobalProcID() int { return s.world.Rank() }

// TotalComponents is MPH_total_components: the number of components across
// every executable of the application.
func (s *Setup) TotalComponents() int { return s.reg.TotalComponents() }

// NumExecutables returns the number of executables in the application.
func (s *Setup) NumExecutables() int { return len(s.reg.Executables) }

// ExecutableIndex returns the registration-file index of this rank's
// executable.
func (s *Setup) ExecutableIndex() int { return s.execIdx }

// ExeLowProcLimit is MPH_exe_low_proc_limit: the lowest world rank of this
// rank's executable.
func (s *Setup) ExeLowProcLimit() int {
	low, _ := s.execBounds()
	return low
}

// ExeUpProcLimit is MPH_exe_up_proc_limit: the highest world rank of this
// rank's executable.
func (s *Setup) ExeUpProcLimit() int {
	_, up := s.execBounds()
	return up
}

func (s *Setup) execBounds() (low, up int) {
	g := s.execComm.Group()
	low, up = g[0], g[0]
	for _, r := range g[1:] {
		if r < low {
			low = r
		}
		if r > up {
			up = r
		}
	}
	return low, up
}

// ExecWorld returns this rank's executable communicator — the value
// MPH_components_setup returns in the paper ("mpi_exec_world").
func (s *Setup) ExecWorld() *mpi.Comm { return s.execComm }

// World returns the world communicator the handshake ran over.
func (s *Setup) World() *mpi.Comm { return s.world }

// GlobalWorld returns MPH_Global_World: the communicator carrying
// name-addressed inter-component traffic (paper §5.2). Its ranks coincide
// with world ranks.
func (s *Setup) GlobalWorld() *mpi.Comm { return s.global }

// Registry returns the parsed registration file.
func (s *Setup) Registry() *registry.Registry { return s.reg }

// ProcInComponent is PROC_in_component (paper §4.2): it reports whether
// this rank runs the named component and, if so, returns the component's
// communicator. Only components of this rank's own executable can be
// members.
func (s *Setup) ProcInComponent(name string) (*mpi.Comm, bool) {
	comm, ok := s.comms[name]
	return comm, ok
}

// ComponentRanks returns the world ranks of a component, in local-rank
// order. Any rank may ask about any component — the layout is global
// knowledge after the handshake.
func (s *Setup) ComponentRanks(name string) ([]int, error) {
	ranks, ok := s.layout[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownComponent, name)
	}
	return append([]int(nil), ranks...), nil
}

// ComponentSize returns the number of processors of a component.
func (s *Setup) ComponentSize(name string) (int, error) {
	ranks, ok := s.layout[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownComponent, name)
	}
	return len(ranks), nil
}

// AllComponentNames returns every registered component name, sorted.
func (s *Setup) AllComponentNames() []string {
	names := make([]string, 0, len(s.layout))
	for n := range s.layout {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InstanceIndex returns this rank's 0-based instance number within a
// multi-instance executable, or -1 for other setups.
func (s *Setup) InstanceIndex() int { return s.instanceIdx }

// NumInstances returns the number of instances of this rank's executable
// (1 for non-multi-instance executables).
func (s *Setup) NumInstances() int {
	e := s.reg.Executables[s.execIdx]
	if e.Kind != registry.MultiInstance {
		return 1
	}
	return len(e.Components)
}
