package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mph/benchmark/job"
	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/mpi"
	"mph/internal/mpirun"
)

// jobTimeout bounds one coupled job; the slowest is under 3 s.
const jobTimeout = 90 * time.Second

// runner launches the jobs of one workload, one at a time.
type runner struct {
	w       workload
	rankBin string
	workDir string
	// daemon is the in-driver mphd the placed workloads launch through.
	daemon *mpirun.Daemon
	// launchFailures counts jobs mpirun.Launch itself reported failed.
	launchFailures int
}

// newRunner starts the daemon a placed workload needs.
func newRunner(w workload, rankBin, workDir string) (*runner, error) {
	r := &runner{w: w, rankBin: rankBin, workDir: workDir}
	if w.hosts != "" {
		d, err := mpirun.NewDaemon("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go d.Serve() // returns when close stops the listener
		r.daemon = d
	}
	return r, nil
}

// close stops the daemon; its live connections (none between jobs) die with it.
func (r *runner) close() {
	if r.daemon != nil {
		r.daemon.Close()
	}
}

// jobResult is one launched job: the driver's two marks, the CPU it cost and
// every rank's report.
type jobResult struct {
	launch, ret time.Time
	cpuS        float64
	reports     []*job.Report
}

// cpuSeconds returns user+sys CPU of this process plus its reaped children.
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	return total
}

// run launches one job through mpirun.Launch in a temporary directory of its
// own and collects every rank's report and the component logs' presence. A
// non-nil error means the job counts as failed.
func (r *runner) run(spec job.Spec) (*jobResult, error) {
	dir, err := os.MkdirTemp(r.workDir, "job")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec.OutDir = dir
	specPath := filepath.Join(dir, "job.json")
	if err := spec.Save(specPath); err != nil {
		return nil, err
	}
	regPath := filepath.Join(dir, "processors_map.in")
	if err := os.WriteFile(regPath, []byte(r.w.registration()), 0o644); err != nil {
		return nil, err
	}

	entries := make([]mpirun.Entry, len(r.w.exes))
	for i := range r.w.exes {
		entries[i] = mpirun.Entry{
			Nprocs: r.w.exeSize(i),
			Argv:   []string{r.rankBin, "-job", specPath, "-names", strings.Join(r.w.exeNames(i), ",")},
		}
	}
	var hosts []mpirun.HostSlot
	var spawner mpirun.Spawner = mpirun.NewLocalSpawner()
	if r.w.hosts != "" {
		if hosts, err = mpirun.ParseHostList(r.w.hosts); err != nil {
			return nil, err
		}
		spawner = mpirun.NewDaemonSpawner(r.daemon.Addr(), 0)
	}
	ls, err := mpirun.NewLaunchSpec(entries, hosts, mpirun.PlaceBlock)
	if err != nil {
		return nil, err
	}
	ls.Registration = regPath
	ls.Spawner = spawner
	ls.Quiet = true
	ls.Grace = 2 * time.Second

	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	res := &jobResult{}
	cpu0 := cpuSeconds()
	res.launch = time.Now()
	err = mpirun.Launch(ctx, ls)
	res.ret = time.Now()
	res.cpuS = cpuSeconds() - cpu0
	if err != nil {
		r.launchFailures++
		return nil, fmt.Errorf("launch: %w", err)
	}

	for rank := 0; rank < r.w.size(); rank++ {
		rep, err := job.LoadReport(dir, rank)
		if err != nil {
			return nil, err
		}
		res.reports = append(res.reports, rep)
	}
	for _, exe := range r.w.exes {
		for _, c := range exe {
			if _, err := os.Stat(filepath.Join(dir, c.name+".log")); err != nil {
				return nil, fmt.Errorf("component log: %w", err)
			}
		}
	}
	return res, nil
}

// rootDiag returns the diagnostics the coupler root reported, or nil.
func rootDiag(res *jobResult) *coupler.Diagnostics {
	for _, rep := range res.reports {
		if rep.Diag != nil {
			return rep.Diag
		}
	}
	return nil
}

// check applies the correctness checks to a job that ran: no rank survived
// it, job-wide sent == received, and the diagnostics match the reference.
// A traced job's receive counts are not reconciled: its ranks go on to the
// probe after the snapshot, so a slow rank's snapshot can already hold a fast
// rank's later messages. Its send counts must equal an untraced job's instead
// (mirrorDiverged).
func check(res *jobResult, spec job.Spec, ref *coupler.Diagnostics) error {
	var sentMsgs, recvMsgs, sentBytes, recvBytes uint64
	for _, rep := range res.reports {
		sentMsgs += rep.Snap.TotalSentMsgs
		recvMsgs += rep.Snap.TotalRecvMsgs
		sentBytes += rep.Snap.TotalSentBytes
		recvBytes += rep.Snap.TotalRecvBytes
		// Launch has reaped every rank, so its pid must be gone.
		if err := syscall.Kill(rep.Snap.PID, 0); !errors.Is(err, syscall.ESRCH) {
			return fmt.Errorf("rank %d (pid %d) survived the job", rep.Rank, rep.Snap.PID)
		}
	}
	if !spec.Traced && (sentMsgs != recvMsgs || sentBytes != recvBytes) {
		return fmt.Errorf("job-wide sent %d msgs/%d bytes != received %d/%d", sentMsgs, sentBytes, recvMsgs, recvBytes)
	}
	diag := rootDiag(res)
	if diag == nil {
		return errors.New("no diagnostics from the coupler root")
	}
	return sameDiagnostics(diag, ref, spec.Periods)
}

// sameDiagnostics checks means and energy within 1e-9 relative of the
// reference and the flux imbalance below 1e-8 every period.
func sameDiagnostics(got, ref *coupler.Diagnostics, periods int) error {
	gotSeries, refSeries := job.DiagSeries(got), job.DiagSeries(ref)
	for i, name := range job.DiagNames {
		g, r := gotSeries[i], refSeries[i]
		if len(g) != periods || len(r) != periods {
			return fmt.Errorf("%s: %d periods, reference %d, want %d", name, len(g), len(r), periods)
		}
		for p := range g {
			// The last series is the flux imbalance: zero up to rounding.
			ok := math.Abs(g[p]-r[p]) <= 1e-9*math.Abs(r[p])
			if i == len(job.DiagNames)-1 {
				ok = math.Abs(g[p]) < 1e-8
			}
			if !ok {
				return fmt.Errorf("%s period %d: %v, reference %v", name, p, g[p], r[p])
			}
		}
	}
	return nil
}

// reference runs the same spec and layout in one process over mpi.RunWorld
// and returns the diagnostics every launched job must reproduce.
func (w workload) reference(spec job.Spec) (*coupler.Diagnostics, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	src := core.TextSource(w.registration())
	var ref *coupler.Diagnostics
	err = mpi.RunWorld(w.size(), func(c *mpi.Comm) error {
		s, err := core.ComponentsSetup(c, src, w.exeNames(w.exeOfRank(c.Rank())))
		if err != nil {
			return err
		}
		d, err := coupler.RunCoupled(s, cfg)
		if c.Rank() == 0 {
			ref = d
		}
		return err
	})
	return ref, err
}
