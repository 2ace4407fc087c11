package core_test

import (
	"fmt"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

func TestInquirySuite(t *testing.T) {
	// One pass over every inquiry function of paper §5.3 on the MCME
	// layout, with exact expectations per rank.
	mpitest.Run(t, mcmeWorldSize, func(c *mpi.Comm) error {
		s, err := mcmeSetup(c)
		if err != nil {
			return err
		}
		if s.GlobalProcID() != c.Rank() {
			return fmt.Errorf("GlobalProcID %d", s.GlobalProcID())
		}
		if s.TotalComponents() != 6 {
			return fmt.Errorf("TotalComponents %d", s.TotalComponents())
		}
		if s.NumExecutables() != 3 {
			return fmt.Errorf("NumExecutables %d", s.NumExecutables())
		}
		wantExec := 0
		if c.Rank() >= 6 {
			wantExec = 1
		}
		if c.Rank() >= 13 {
			wantExec = 2
		}
		if s.ExecutableIndex() != wantExec {
			return fmt.Errorf("ExecutableIndex %d, want %d", s.ExecutableIndex(), wantExec)
		}
		if s.World().Size() != mcmeWorldSize {
			return fmt.Errorf("World size %d", s.World().Size())
		}
		if s.GlobalWorld().Size() != mcmeWorldSize {
			return fmt.Errorf("GlobalWorld size %d", s.GlobalWorld().Size())
		}
		if s.Registry().TotalComponents() != 6 {
			return fmt.Errorf("Registry accessor broken")
		}
		if s.NumInstances() != 1 {
			return fmt.Errorf("NumInstances %d for non-MIME", s.NumInstances())
		}
		return nil
	})
}
