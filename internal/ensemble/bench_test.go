package ensemble_test

import (
	"fmt"
	"testing"

	"mph/internal/core"
	"mph/internal/ensemble"
	"mph/internal/mpi"
	"mph/internal/registry"
)

// BenchmarkAggregateAndSteer (EXPERIMENTS.md E6) runs the MIME pattern of
// paper §2.5 end to end: K one-rank instances of one executable, told apart
// by an offset= argument, send a 256-cell field to a statistics rank, which
// takes the per-cell median and steers every member toward a common target;
// four cycles a world. An op is world creation + handshake + the cycles, and
// it fails unless the controller has collapsed the initial spread of K-1.
func BenchmarkAggregateAndSteer(b *testing.B) {
	const rounds, cells, tagUp, tagDown = 4, 256, 1, 2
	member := func(c *mpi.Comm, src core.Source) error {
		s, err := core.MultiInstance(c, src, "ens")
		if err != nil {
			return err
		}
		offset, ok, err := s.GetArgumentInt("offset")
		if err != nil || !ok {
			return fmt.Errorf("offset argument: present=%v err=%v", ok, err)
		}
		field := make([]float64, cells)
		for i := range field {
			field[i] = float64(offset)
		}
		for r := 0; r < rounds; r++ {
			if err := s.SendFloatsTo("statistics", 0, tagUp, field); err != nil {
				return err
			}
			adj, _, err := s.RecvFloatsFrom("statistics", 0, tagDown)
			if err != nil {
				return err
			}
			for i := range field {
				field[i] += adj[0]
			}
		}
		return nil
	}
	statistics := func(c *mpi.Comm, src core.Source, members int) error {
		s, err := core.SingleComponentSetup(c, src, "statistics")
		if err != nil {
			return err
		}
		ctrl := ensemble.Controller{Target: 0, Gain: 0.7}
		diags := make([]float64, members)
		for r := 0; r < rounds; r++ {
			fields := make([][]float64, members)
			for k := range fields {
				if fields[k], _, err = s.RecvFloatsFrom(fmt.Sprintf("ens%d", k+1), 0, tagUp); err != nil {
					return err
				}
				diags[k] = fields[k][0] // a member's field is uniform
			}
			if _, err := ensemble.CellQuantiles(fields, 0.5); err != nil {
				return err
			}
			adj := ctrl.Adjust(diags)
			for k := range adj {
				if err := s.SendFloatsTo(fmt.Sprintf("ens%d", k+1), 0, tagDown, adj[k:k+1]); err != nil {
					return err
				}
				diags[k] += adj[k]
			}
		}
		if spread := ensemble.Spread(diags); spread > 0.5 {
			return fmt.Errorf("final spread %g: the controller did not converge", spread)
		}
		return nil
	}
	for _, members := range []int{2, 4, 8, 16, 32} {
		reg, err := registry.NewBuilder().
			InstancesEvenly("ens", members, 1, func(k int) []string { return []string{fmt.Sprintf("offset=%d", k)} }).
			Single("statistics").Text()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K=%d", members), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.RunWorld(members+1, func(c *mpi.Comm) error {
					if c.Rank() < members {
						return member(c, core.TextSource(reg))
					}
					return statistics(c, core.TextSource(reg), members)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
