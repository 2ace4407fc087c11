// Ensemble: the multi-instance mode of paper §2.5 and §4.4 — K replicas of
// one ocean executable run simultaneously, each with its own input
// parameters from the registration file, while a statistics component
// aggregates instantaneous fields on the fly and steers the members.
//
// The run demonstrates the two capabilities the paper says are impossible
// with K independent jobs:
//
//   - nonlinear order statistics (the per-cell ensemble median) computed
//     from instantaneous fields, and
//   - dynamic control: the statistics component adjusts each member's
//     forcing so the ensemble converges toward a target mean temperature.
//
// Run:
//
//	go run ./examples/ensemble -members 4 -rounds 6
package main

import (
	"flag"
	"fmt"
	"os"

	"mph/internal/core"
	"mph/internal/ensemble"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
	"mph/internal/registry"
)

const (
	ranksPerMember = 2
	tagField       = 10
	tagControl     = 11
)

// registrationFor builds the multi-instance registration file for K
// members, each with a per-instance perturbation argument — exactly the
// paper's "Ocean1 0 15 ... alpha=3" pattern.
func registrationFor(members int) string {
	text, err := registry.NewBuilder().
		InstancesEvenly("Ocean", members, ranksPerMember, func(k int) []string {
			// Spread initial perturbations symmetrically around zero.
			perturb := float64(k)*2 - float64(members-1)
			return []string{
				fmt.Sprintf("perturb=%g", perturb),
				fmt.Sprintf("member=%d", k),
			}
		}).
		Single("statistics").
		Text()
	if err != nil {
		panic(err) // static layout; cannot fail
	}
	return text
}

func main() {
	members := flag.Int("members", 4, "ensemble members (instances)")
	rounds := flag.Int("rounds", 6, "aggregation rounds")
	substeps := flag.Int("substeps", 5, "model steps between aggregations")
	target := flag.Float64("target", 287, "target ensemble-mean SST for steering")
	flag.Parse()
	if *members < 2 {
		fmt.Fprintln(os.Stderr, "ensemble: need at least 2 members")
		os.Exit(1)
	}

	reg := registrationFor(*members)
	world := *members*ranksPerMember + 1 // +1 statistics rank
	g, err := grid.New(12, 6)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	err = mpi.RunWorld(world, func(c *mpi.Comm) error {
		if c.Rank() < *members*ranksPerMember {
			return runMember(c, reg, g, *rounds, *substeps)
		}
		return runStatistics(c, reg, g, *members, *rounds, *target)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ensemble: %v\n", err)
		os.Exit(1)
	}
}

// runMember is the replicated ocean executable: one source, K instances,
// differing only through registration-file arguments (paper §4.4).
func runMember(c *mpi.Comm, reg string, g grid.Grid, rounds, substeps int) error {
	s, err := core.MultiInstance(c, core.TextSource(reg), "Ocean")
	if err != nil {
		return err
	}
	perturb, ok, err := s.GetArgumentFloat("perturb")
	if err != nil || !ok {
		return fmt.Errorf("member %s: perturb argument: %v", s.CompName(), err)
	}

	comm, _ := s.ProcInComponent(s.CompName())
	decomp, err := grid.NewDecomp(g, comm.Size())
	if err != nil {
		return err
	}
	eq := model.SolarEquilibrium(g, 271, 302)
	m, err := model.New(s.CompName(), comm, decomp, model.Params{
		Kappa:   0.05,
		Relax:   0.05,
		Forcing: func(lat, lon int, t float64) float64 { return eq(lat, lon, t) + perturb },
		Initial: func(lat, lon int) float64 { return 285 + perturb },
	})
	if err != nil {
		return err
	}

	bias := 0.0 // accumulated steering correction
	for round := 0; round < rounds; round++ {
		if err := m.StepN(substeps, 1); err != nil {
			return err
		}
		// Ship the instantaneous local slab to the statistics component:
		// every member rank sends its piece, addressed by name (§5.2).
		header := []float64{float64(s.InstanceIndex()), float64(comm.Rank())}
		if err := s.SendFloatsTo("statistics", 0, tagField, append(header, m.Field().Data...)); err != nil {
			return err
		}
		// Receive the steering correction (root only) and broadcast it
		// within the instance.
		var adj []float64
		if comm.Rank() == 0 {
			xs, _, err := s.RecvFrom("statistics", 0, tagControl)
			if err != nil {
				return err
			}
			vals, err := mpi.DecodeFloats(xs)
			if err != nil {
				return err
			}
			adj = vals
		}
		adj, err = comm.BcastFloats(0, adj)
		if err != nil {
			return err
		}
		bias += adj[0]
		for i := range m.Field().Data {
			m.Field().Data[i] += adj[0]
		}
	}
	_ = bias
	return nil
}

// runStatistics is the single-component executable collecting fields,
// computing on-the-fly statistics, and steering the members.
func runStatistics(c *mpi.Comm, reg string, g grid.Grid, members, rounds int, target float64) error {
	s, err := core.SingleComponentSetup(c, core.TextSource(reg), "statistics")
	if err != nil {
		return err
	}
	moments, err := ensemble.NewMoments(g.Cells())
	if err != nil {
		return err
	}
	ctrl := ensemble.Controller{Target: target, Gain: 0.6}

	fmt.Printf("%-6s %12s %12s %12s %12s\n", "round", "ens-mean", "ens-median", "spread", "variance")
	for round := 0; round < rounds; round++ {
		// Assemble each member's full field from its ranks' slabs.
		fields := make([][]float64, members)
		for i := range fields {
			fields[i] = make([]float64, 0, g.Cells())
		}
		expected := 0
		for k := 0; k < members; k++ {
			expected += ranksPerMember
		}
		slabs := make(map[int][][]float64, members) // member -> slabs by rank
		for i := 0; i < expected; i++ {
			data, _, _, err := s.RecvAny(tagField)
			if err != nil {
				return err
			}
			vals, err := mpi.DecodeFloats(data)
			if err != nil {
				return err
			}
			member, rank := int(vals[0]), int(vals[1])
			if slabs[member] == nil {
				slabs[member] = make([][]float64, ranksPerMember)
			}
			slabs[member][rank] = vals[2:]
		}
		for k := 0; k < members; k++ {
			for r := 0; r < ranksPerMember; r++ {
				fields[k] = append(fields[k], slabs[k][r]...)
			}
		}

		// On-the-fly statistics: running moments of the ensemble mean
		// field, per-cell median (a nonlinear order statistic), member
		// diagnostics for steering.
		mean, err := ensemble.EnsembleMean(fields)
		if err != nil {
			return err
		}
		if err := moments.Add(mean); err != nil {
			return err
		}
		median, err := ensemble.CellQuantiles(fields, 0.5)
		if err != nil {
			return err
		}

		diags := make([]float64, members)
		for k, f := range fields {
			sum := 0.0
			for _, v := range f {
				sum += v
			}
			diags[k] = sum / float64(len(f))
		}
		adjust := ctrl.Adjust(diags)
		for k := 0; k < members; k++ {
			name := fmt.Sprintf("Ocean%d", k+1)
			if err := s.SendFloatsTo(name, 0, tagControl, []float64{adjust[k]}); err != nil {
				return err
			}
		}

		ensMean := avg(mean)
		fmt.Printf("%-6d %12.4f %12.4f %12.4f %12.6f\n",
			round, ensMean, avg(median), ensemble.Spread(diags), avg(moments.Variance()))
	}
	return nil
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
