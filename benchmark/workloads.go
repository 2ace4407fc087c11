package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mph/benchmark/job"
)

// component is one named component of an executable and its rank count.
type component struct {
	name  string
	ranks int
}

// workload is one set of generated inputs: a process layout, a placement and
// a problem size. The seed only perturbs the initial fields.
type workload struct {
	name string
	// why is the reason the workload exists: the layers it stresses and the
	// ones it bypasses.
	why string
	// exes lists the executables in world-rank order; an executable with more
	// than one component is an MCME entry with disjoint ranges.
	exes [][]component
	// hosts, when set, places the ranks on these labelled hosts (block) and
	// launches through a DaemonSpawner; "" is one host, LocalSpawner.
	hosts string

	nlat, nlon, periods, substeps int
}

// canonical is the examples/climate layout: five single-component
// executables, 10 ranks.
var canonical = [][]component{
	{{"atmosphere", 3}}, {{"ocean", 2}}, {{"land", 2}}, {{"ice", 1}}, {{"coupler", 2}},
}

// wide is 16 ranks in three executables, two of them multi-component.
var wide = [][]component{
	{{"atmosphere", 5}, {"land", 3}}, {{"ocean", 4}, {"ice", 2}}, {{"coupler", 2}},
}

// workloads is the suite. The coupled jobs are sized to 2–4 s on the 2-core
// reference box (launch_wide: 0.15 s), so a 20 s run holds five to eight.
var workloads = []workload{
	{
		name: "launch_wide",
		why:  "16 ranks, 3 MCME executables, tiny grid: spawn, wiring, handshake and teardown are the wall-clock; model/xfer/transport idle",
		exes: wide, nlat: 24, nlon: 8, periods: 20, substeps: 1,
	},
	{
		name: "couple_bulk",
		why:  "384x192 grid, 1 substep: every exchange piece is >=64 KiB, so xfer over rendezvous and the shm channel dominates",
		exes: canonical, nlat: 384, nlon: 192, periods: 80, substeps: 1,
	},
	{
		name: "couple_fine",
		why:  "48x24 grid, 2000 periods: same layers, few-KiB eager messages, so per-message overhead and matching dominate, not bandwidth",
		exes: canonical, nlat: 48, nlon: 24, periods: 2000, substeps: 1,
	},
	{
		name: "bulk_2host",
		why:  "couple_bulk placed nodeA:5,nodeB:5 through a daemon: atm/ocn traffic crosses the host label (TCP, no shm), hier collectives",
		exes: canonical, nlat: 384, nlon: 192, periods: 80, substeps: 1,
		hosts: "nodeA:5,nodeB:5",
	},
	{
		name: "compute_heavy",
		why:  "384x192 grid, 32 substeps: model.Step is nearly all of the run; the bypass workload for launch and communication changes",
		exes: canonical, nlat: 384, nlon: 192, periods: 20, substeps: 32,
	},
}

// tiny shrinks a workload to a smoke-test size; layout and placement stay.
func (w workload) tiny() workload {
	w.nlat, w.nlon, w.periods = 24, 8, 4
	if w.substeps > 2 {
		w.substeps = 2
	}
	return w
}

// size returns the world size.
func (w workload) size() int {
	n := 0
	for _, exe := range w.exes {
		for _, c := range exe {
			n += c.ranks
		}
	}
	return n
}

// exeNames returns the component names of executable i.
func (w workload) exeNames(i int) []string {
	names := make([]string, len(w.exes[i]))
	for j, c := range w.exes[i] {
		names[j] = c.name
	}
	return names
}

// exeSize returns the rank count of executable i.
func (w workload) exeSize(i int) int {
	n := 0
	for _, c := range w.exes[i] {
		n += c.ranks
	}
	return n
}

// exeOfRank returns the executable index holding a world rank.
func (w workload) exeOfRank(rank int) int {
	for i := range w.exes {
		if rank < w.exeSize(i) {
			return i
		}
		rank -= w.exeSize(i)
	}
	return -1
}

// registration renders the workload's MPH registration file: bare names for
// single-component executables, ranged Multi_Component blocks otherwise.
func (w workload) registration() string {
	var b strings.Builder
	b.WriteString("BEGIN\n")
	for _, exe := range w.exes {
		if len(exe) == 1 {
			fmt.Fprintf(&b, "%s\n", exe[0].name)
			continue
		}
		b.WriteString("Multi_Component_Begin\n")
		lo := 0
		for _, c := range exe {
			fmt.Fprintf(&b, "%s %d %d\n", c.name, lo, lo+c.ranks-1)
			lo += c.ranks
		}
		b.WriteString("Multi_Component_End\n")
	}
	b.WriteString("END\n")
	return b.String()
}

// modelComponents are the four components whose initial fields the seed
// perturbs.
var modelComponents = []string{"atmosphere", "ocean", "land", "ice"}

// spec generates the job input for a seed.
func (w workload) spec(seed int64) job.Spec {
	rng := rand.New(rand.NewSource(seed))
	s := job.Spec{
		NLat: w.nlat, NLon: w.nlon, Periods: w.periods, SubSteps: w.substeps, Dt: 0.5,
		Perturb: make(map[string]job.Perturbation),
	}
	for _, name := range modelComponents {
		s.Perturb[name] = job.Perturbation{
			Eps:   0.002 + 0.008*rng.Float64(),
			KLat:  0.1 + 0.4*rng.Float64(),
			KLon:  0.1 + 0.4*rng.Float64(),
			Phase: 2 * math.Pi * rng.Float64(),
		}
	}
	return s
}
