package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runRecord is one run of a suite document: which run it was, and its result.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   result `json:"result"`
}

// suiteDoc is what -out writes and -compare reads: every run of one
// invocation, in the order they ran.
type suiteDoc struct {
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// write writes the document to path.
func (d *suiteDoc) write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSuite measures the given workloads in order: unless trace is 1, reps
// untraced runs each, with seeds seed, seed+1, ...; unless trace is 0, one
// traced run. It prints every run's result as a line of stdout.
func runSuite(opt options, order []workload, seed int64, reps, trace int) (*suiteDoc, error) {
	doc := &suiteDoc{Seconds: opt.seconds}
	run := func(w workload, seed int64, traced bool) error {
		res, err := measure(opt, w, seed, traced)
		if err != nil {
			return err
		}
		doc.Runs = append(doc.Runs, runRecord{w.name, seed, traced, res})
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		_, err = fmt.Println(string(line))
		return err
	}
	for _, w := range order {
		for rep := 0; rep < reps && trace != 1; rep++ {
			if err := run(w, seed+int64(rep), false); err != nil {
				return nil, err
			}
		}
		if trace != 0 {
			if err := run(w, seed, true); err != nil {
				return nil, err
			}
		}
	}
	return doc, nil
}

// workloadRuns is one workload's part of a suite document: per end-to-end
// metric one value per untraced run, and the jobs of all its runs.
type workloadRuns struct {
	endToEnd          map[string][]float64
	attempted, failed int
}

// failedShare is failed jobs over attempted jobs.
func (r *workloadRuns) failedShare() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// byWorkload groups a document's runs and returns the workload names in
// order of first appearance.
func (d *suiteDoc) byWorkload() (map[string]*workloadRuns, []string) {
	groups := make(map[string]*workloadRuns)
	var names []string
	for _, run := range d.Runs {
		g := groups[run.Workload]
		if g == nil {
			g = &workloadRuns{endToEnd: make(map[string][]float64)}
			groups[run.Workload] = g
			names = append(names, run.Workload)
		}
		g.attempted += run.Result.Attempted
		g.failed += run.Result.Failed
		if !run.Traced {
			for name, v := range run.Result.Metrics {
				g.endToEnd[name] = append(g.endToEnd[name], v.Value)
			}
		}
	}
	return groups, names
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), so the
// spreads printed here are the ones the merge gate computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// compareDocs applies each end-to-end metric's bound to the medians of two
// suite documents, one row per workload and metric, for every workload of the
// baseline. A pairing whose own run-to-run spread exceeds the bound is
// unresolved, not unchanged. A workload or metric the new document lacks, and
// any rise of failed_share, is a regression. It returns the number of
// regressions and of unresolved pairings.
func compareDocs(base, next *suiteDoc) (regressions, unresolved int) {
	baseRuns, names := base.byWorkload()
	nextRuns, _ := next.byWorkload()
	fmt.Printf("%-14s %-12s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, name := range names {
		b, n := baseRuns[name], nextRuns[name]
		if n == nil {
			fmt.Printf("%-14s missing from the new document  REGRESSION\n", name)
			regressions++
			continue
		}
		for _, m := range endToEnd {
			olds, news := b.endToEnd[m.name], n.endToEnd[m.name]
			if len(olds) == 0 {
				continue // no baseline for a metric newer than the old document
			}
			if len(news) == 0 {
				fmt.Printf("%-14s %-12s missing from the new document  REGRESSION\n", name, m.name)
				regressions++
				continue
			}
			oldM, newM := median(olds), median(news)
			worse := (newM - oldM) / oldM
			if m.higher {
				worse = -worse
			}
			sp := max(spread(olds), spread(news))
			verdict := "ok"
			switch {
			case sp > m.bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %7.0f%%  %s\n",
				name, m.name, oldM, newM, 100*(newM-oldM)/oldM, 100*sp, 100*m.bound, verdict)
		}
		// Runs are time-boxed, so the two documents attempted different
		// numbers of jobs: compare shares, not counts.
		verdict := "ok"
		if n.failedShare() > b.failedShare() {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-14s %-12s %12.4f %12.4f %8s %8s %8s  %s (%d of %d jobs, was %d of %d)\n",
			name, "failed_share", b.failedShare(), n.failedShare(), "", "", "any",
			verdict, n.failed, n.attempted, b.failed, b.attempted)
	}
	fmt.Printf("%d regression(s), %d unresolved\n", regressions, unresolved)
	return regressions, unresolved
}

// compareFiles is -compare: exit code 1 on a regression.
func compareFiles(basePath, nextPath string) int {
	var docs [2]suiteDoc
	for i, path := range []string{basePath, nextPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &docs[i])
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	if regressions, _ := compareDocs(&docs[0], &docs[1]); regressions > 0 {
		return 1
	}
	return 0
}

// runSelfcheck runs the untraced suite twice on the same build, the second
// time in reverse workload order, and compares the two: any regression or
// unresolved pairing means the benchmark cannot tell a change from its own
// noise. out, when set, receives the second suite.
func runSelfcheck(opt options, order []workload, seed int64, reps int, out string) int {
	if reps < 2 {
		fatal(fmt.Errorf("-selfcheck needs -reps 2 or more: one run has no spread"))
	}
	first, err := runSuite(opt, order, seed, reps, 0)
	if err != nil {
		fatal(err)
	}
	reversed := make([]workload, len(order))
	for i, w := range order {
		reversed[len(order)-1-i] = w
	}
	second, err := runSuite(opt, reversed, seed+int64(reps), reps, 0)
	if err != nil {
		fatal(err)
	}
	if out != "" {
		if err := second.write(out); err != nil {
			fatal(err)
		}
	}
	if regressions, unresolved := compareDocs(first, second); regressions+unresolved > 0 {
		return 1
	}
	return 0
}
