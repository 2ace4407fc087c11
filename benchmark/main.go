// Benchmark is the repo's end-to-end coupled-job benchmark with per-layer
// attribution; BENCHMARK.json at the repo root describes it and README.md in
// this directory explains every metric and workload.
//
// One run measures one workload for -seconds seconds: real OS processes over
// real sockets, launched through mpirun.Launch one job at a time, each job's
// outputs checked against an in-process reference. An untraced run gives the
// end-to-end metrics; a traced run alternates untraced and traced jobs and
// gives the per-layer metrics. Every run prints its result, one JSON object,
// as a line of standard output.
//
// -workload and -trace select the runs; by default every workload gets -reps
// untraced runs (seeds seed, seed+1, ...) and one traced run. -out writes the
// runs as a suite document, -compare old.json new.json applies the bounds to
// two such documents, and -selfcheck runs the untraced suite twice on this
// build and compares the two.
//
// Run it through run.sh, which builds this driver and the rank binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mph/benchmark/job"
	"mph/internal/coupler"
)

// minJobs is the least number of timed jobs in a run, however short -seconds
// (one under -tiny).
const minJobs = 5

// setupProbes is the number of set-up-only jobs an untraced run launches
// after each timed job.
const setupProbes = 4

// options are the settings shared by every run of one invocation.
type options struct {
	rankBin, workDir, traceOut string
	seconds                    float64
	tiny                       bool
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the object the merge gate reads. Metrics
// holds the end-to-end metrics of an untraced run (each the median over the
// run's jobs) or the per-layer metrics of a traced run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long one run keeps launching jobs")
	trace := flag.Int("trace", -1, "0 = untraced runs only, 1 = the traced run only (default: both)")
	reps := flag.Int("reps", 1, "untraced runs per workload, each with the next seed")
	out := flag.String("out", "", "also write the runs to this file as a suite document")
	compare := flag.Bool("compare", false, "compare two suite documents: -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two")
	tiny := flag.Bool("tiny", false, "smoke-test sizes")
	traceOut := flag.String("traceout", "", "traced run: write the last job's merged spans as a Chrome trace")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two suite documents"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	rankBin := filepath.Join(filepath.Dir(self), "rank")
	if _, err := os.Stat(rankBin); err != nil {
		fatal(fmt.Errorf("rank binary: %w (build it with run.sh)", err))
	}
	// Per-job temporary files go next to run.sh's build output. The path is
	// relative so that the ranks' shm socket names stay short whatever the
	// checkout is called.
	workDir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	// The ranks' shm sockets and the daemon's registration copies go to
	// os.TempDir: keep them inside the work directory too.
	os.Setenv("TMPDIR", workDir)
	opt := options{rankBin: rankBin, workDir: workDir, traceOut: *traceOut, seconds: *seconds, tiny: *tiny}

	order := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		order = []workload{w}
	}
	if *selfcheck {
		os.Exit(runSelfcheck(opt, order, *seed, *reps, *out))
	}
	doc, err := runSuite(opt, order, *seed, *reps, *trace)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := doc.write(*out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newResult builds a run's result from the values it measured: every metric
// of the table that has one.
func newResult(attempted, failed int, table []metric, values map[string]float64) result {
	res := result{failed == 0, attempted, failed, make(map[string]value)}
	for _, m := range table {
		if v, ok := values[m.name]; ok {
			res.Metrics[m.name] = value{v, m.unit}
		}
	}
	return res
}

// measure runs one workload for opt.seconds: the reference first, one
// uncounted tiny warm-up job, then timed jobs in a closed loop, one in
// flight.
func measure(opt options, w workload, seed int64, traced bool) (result, error) {
	if opt.tiny {
		w = w.tiny()
	}
	spec, tinySpec := w.spec(seed), w.tiny().spec(seed)
	ref, err := w.reference(spec)
	if err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	tinyRef, err := w.reference(tinySpec)
	if err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	r, err := newRunner(w, opt.rankBin, opt.workDir)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	if _, err := r.run(tinySpec); err != nil {
		fmt.Fprintf(os.Stderr, "%s: warm-up job failed: %v\n", w.name, err)
	}
	r.launchFailures = 0 // the warm-up job is not one of the attempted

	attempted, failed := 0, 0
	// launch runs one counted job and checks it; samples receives its
	// numbers, or just the one named by only.
	launch := func(spec job.Spec, ref *coupler.Diagnostics, samples map[string][]float64, only string) *jobResult {
		attempted++
		res, err := r.run(spec)
		if err == nil {
			err = check(res, spec, ref)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: job %d failed: %v\n", w.name, attempted, err)
			return nil
		}
		for name, v := range endToEndOf(res, spec.Periods) {
			if only == "" || only == name {
				samples[name] = append(samples[name], v)
			}
		}
		return res
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	least := minJobs
	if opt.tiny {
		least = 1
	}
	samples := make(map[string][]float64)
	medians := func() map[string]float64 {
		m := make(map[string]float64, len(samples))
		for k, xs := range samples {
			m[k] = median(xs)
		}
		return m
	}

	if !traced {
		for n := 0; n < least || time.Now().Before(deadline); n++ {
			launch(spec, ref, samples, "")
			// Set-up is some 50 ms of a job of seconds, so a run holds few
			// samples of it and their median wanders. Jobs that do little
			// else set up the same way: take more samples from those.
			for i := 0; i < setupProbes; i++ {
				launch(tinySpec, tinyRef, samples, "setup_s")
			}
		}
		summarize(w, samples, attempted, failed)
		return newResult(attempted, failed, endToEnd, medians()), nil
	}

	// Traced run: untraced and traced jobs alternate. The untraced one is
	// the mirror guard's witness, the base of the tracing overhead and the
	// source of the whole-job numbers.
	tracedSpec := spec
	tracedSpec.Traced = true
	tracedSamples := make(map[string][]float64)
	var layers []map[string]float64
	var periodsMS []float64
	var last *jobResult
	diverged := 0.0
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		u := launch(spec, ref, samples, "")
		t := launch(tracedSpec, ref, tracedSamples, "period_ms")
		if u == nil || t == nil {
			continue
		}
		if why := mirrorDiverged(u, t); why != "" {
			fmt.Fprintf(os.Stderr, "%s: trace_mirror_diverged: %s\n", w.name, why)
			diverged = 1
			failed++
			continue
		}
		layers = append(layers, perLayerOf(w, t, &periodsMS))
		last = t
	}
	layer := medians() // job_wall_s, period_ms, cpu_s of the untraced jobs
	for _, m := range perLayer {
		if _, ok := layer[m.name]; ok {
			continue
		}
		var xs []float64
		for _, l := range layers {
			xs = append(xs, l[m.name])
		}
		layer[m.name] = median(xs)
	}
	layer["registry.parse_us"] = registryParseUS(w)
	layer["coupler.period_ms_p50"] = median(periodsMS)
	layer["coupler.period_ms_p95"] = nearestRank(periodsMS, 0.95)
	// Overhead of the spans on what they time, the coupled loop; the probe
	// and the span dump come after it.
	if base := layer["period_ms"]; base > 0 {
		layer["perf.trace_overhead_pct"] = 100 * (median(tracedSamples["period_ms"]) - base) / base
	}
	if diverged != 0 || len(layers) == 0 {
		// The step-by-step copy no longer does what RunCoupled does (or no
		// pair of jobs ran clean): its spans time something else, so no time
		// is reported, only what was counted.
		for _, m := range perLayer {
			if m.unit != "count" && m.unit != "bytes" {
				delete(layer, m.name)
			}
		}
	}
	layer["mpirun.launch_failures"] = float64(r.launchFailures)
	layer["perf.trace_mirror_diverged"] = diverged
	if last != nil {
		shmByComponent(w, last)
		if opt.traceOut != "" {
			if err := writeChromeTrace(opt.traceOut, last); err != nil {
				return result{}, err
			}
		}
	}
	return newResult(attempted, failed, perLayer, layer), nil
}

// mirrorDiverged compares a traced job with an untraced one of the same
// spec: the diagnostics bit for bit, the message and collective counts
// exactly. It returns "" when they agree.
func mirrorDiverged(u, t *jobResult) string {
	if cu, ct := countsOf(u), countsOf(t); cu != ct {
		return fmt.Sprintf("counts: untraced %+v, traced %+v", cu, ct)
	}
	du, dt := job.DiagSeries(rootDiag(u)), job.DiagSeries(rootDiag(t))
	for i, name := range job.DiagNames {
		if len(du[i]) != len(dt[i]) {
			return fmt.Sprintf("%s: %d vs %d periods", name, len(du[i]), len(dt[i]))
		}
		for p := range du[i] {
			if math.Float64bits(du[i][p]) != math.Float64bits(dt[i][p]) {
				return fmt.Sprintf("%s period %d: %v vs %v", name, p, du[i][p], dt[i][p])
			}
		}
	}
	return ""
}

// summarize prints the numbers of an untraced run's jobs to stderr: median,
// the highest percentile with at least ten samples beyond it, sample count,
// and the share of jobs that failed.
func summarize(w workload, samples map[string][]float64, attempted, failed int) {
	for _, m := range jobNumbers {
		xs := samples[m.name]
		line := fmt.Sprintf("%s: %-12s median %.4f %s", w.name, m.name, median(xs), m.unit)
		if n := len(xs); n >= 40 {
			q := float64(n-10) / float64(n)
			line += fmt.Sprintf(", p%.0f %.4f", 100*q, nearestRank(xs, q))
		}
		fmt.Fprintf(os.Stderr, "%s (n=%d)\n", line, len(xs))
	}
	fmt.Fprintf(os.Stderr, "%s: %-12s %.4f ratio (%d of %d jobs)\n",
		w.name, "failed_share", float64(failed)/float64(attempted), failed, attempted)
}

// shmByComponent prints which components sent payloads over the intra-host
// channel: the check that placement, not luck, keeps cross-host traffic off it.
func shmByComponent(w workload, res *jobResult) {
	byComp := make(map[string]uint64)
	for _, rep := range res.reports {
		byComp[rep.Snap.Component] += rep.Snap.Net.ShmRDataOut
	}
	var parts []string
	for name, n := range byComp {
		parts = append(parts, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(parts)
	fmt.Fprintf(os.Stderr, "%s: shm_rdata_out by component: %s\n", w.name, strings.Join(parts, " "))
}

// writeChromeTrace writes a traced job's spans, every rank on its own row,
// in the Chrome trace_event format.
func writeChromeTrace(path string, res *jobResult) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	var events []event
	t0 := res.launch.UnixNano()
	for _, rep := range res.reports {
		for _, s := range rep.Spans {
			events = append(events, event{
				Name: s.Name, Ph: "X", PID: rep.Rank,
				TS: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]int{"period": s.Period, "parent": s.Parent},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
