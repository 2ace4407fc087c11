// Rank is the benchmark's MPH executable: one process of a coupled job the
// driver launches through mpirun.Launch. The same binary serves every
// executable of a layout; -names gives the components of the one it plays.
//
// An untraced rank does what examples/climate does — tcpnet.InitFromEnv, the
// MPH handshake, coupler.RunCoupled, a closing barrier — plus four time.Now()
// marks and a perf snapshot written to the job's output directory at exit. A
// traced rank (Spec.Traced) drives the same loop through job.RunTraced, dumps
// its spans, and runs the transport probe.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mph/benchmark/job"
	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
)

func main() {
	tMain := time.Now()
	specPath := flag.String("job", "", "path of the job.Spec file")
	names := flag.String("names", "", "comma-separated components of this executable")
	flag.Parse()
	if err := run(tMain, *specPath, strings.Split(*names, ",")); err != nil {
		fmt.Fprintln(os.Stderr, "rank:", err)
		os.Exit(1)
	}
}

func run(tMain time.Time, specPath string, names []string) error {
	spec, err := job.LoadSpec(specPath)
	if err != nil {
		return err
	}
	cfg, err := spec.Config()
	if err != nil {
		return err
	}

	env, regPath, err := tcpnet.InitFromEnv()
	if err != nil {
		return err
	}
	defer env.Close()
	tWired := time.Now()
	world := mpi.WorldComm(env)

	s, err := core.ComponentsSetup(world, core.FileSource(regPath), names, core.WithLogDir(spec.OutDir))
	if err != nil {
		return err
	}
	tSetup := time.Now()

	lg, err := s.Logger(s.CompName())
	if err != nil {
		return err
	}
	if s.LocalProcID() == 0 {
		lg.Printf("starting: %d ranks, world %d..%d",
			s.ExecWorld().Size(), s.ExeLowProcLimit(), s.ExeUpProcLimit())
	}

	var rec job.Recorder
	var d *coupler.Diagnostics
	if spec.Traced {
		rec.Add(job.SpanWire, tMain, tWired)
		rec.Add(job.SpanHandshake, tWired, tSetup)
		d, err = job.RunTraced(s, cfg, &rec)
	} else {
		d, err = coupler.RunCoupled(s, cfg)
	}
	if err != nil {
		return err
	}
	tLoopEnd := time.Now()
	if err := world.Barrier(); err != nil { // drain before the counts are read
		return err
	}

	rep := job.Report{
		Rank:    world.Rank(),
		Main:    tMain.UnixNano(),
		Wired:   tWired.UnixNano(),
		Setup:   tSetup.UnixNano(),
		LoopEnd: tLoopEnd.UnixNano(),
		Snap:    env.Perf().Snapshot(),
	}
	couplerRoot, err := s.WorldRankOf(cfg.Names.Coupler, 0)
	if err != nil {
		return err
	}
	if rep.Rank == couplerRoot {
		rep.Diag = d
	}
	if spec.Traced {
		if rep.Probe, err = probe(world, couplerRoot); err != nil {
			return err
		}
		if err := world.Barrier(); err != nil { // hold the others until the probe is done
			return err
		}
		rep.Spans = rec.Spans()
	}
	if rep.MaxRSSKB, err = peakRSSKB(); err != nil {
		return err
	}
	return rep.Save(spec.OutDir)
}

// peakRSSKB reads this process's resident-set high-water mark. It is VmHWM
// and not getrusage's ru_maxrss because exec folds the spawning process's
// peak into the child's ru_maxrss: every rank would report at least the
// driver's size.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			_, err := fmt.Sscanf(rest, "%d kB", &kb)
			return kb, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

const tagProbe = 7000

// probe ping-pongs between world rank 0 and peer; rank 0 returns the result,
// every other rank nil.
func probe(world *mpi.Comm, peer int) (*job.Probe, error) {
	if peer == 0 || (world.Rank() != 0 && world.Rank() != peer) {
		return nil, nil
	}
	small, err := pingPong(world, peer, 1<<10, 50)
	if err != nil {
		return nil, err
	}
	big, err := pingPong(world, peer, 1<<20, 20)
	if err != nil || world.Rank() != 0 {
		return nil, err
	}
	return &job.Probe{
		RTTus1K: float64(small) / 1e3,
		BWMBs1M: 2 * float64(1<<20) / 1e6 / (float64(big) / 1e9),
	}, nil
}

// pingPong bounces a size-byte message n times between world rank 0 and peer
// and returns rank 0's median round trip in ns (0 on peer).
func pingPong(world *mpi.Comm, peer, size, n int) (int64, error) {
	buf := make([]byte, size)
	if world.Rank() == peer {
		for i := 0; i < n; i++ {
			data, _, err := world.Recv(0, tagProbe)
			if err != nil {
				return 0, err
			}
			if err := world.Send(0, tagProbe, data); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	rtts := make([]int64, n)
	for i := range rtts {
		t0 := time.Now()
		if err := world.Send(peer, tagProbe, buf); err != nil {
			return 0, err
		}
		if _, _, err := world.Recv(peer, tagProbe); err != nil {
			return 0, err
		}
		rtts[i] = int64(time.Since(t0))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return rtts[n/2], nil
}
