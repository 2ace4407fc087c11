package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func better(m metric) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// TestContractMatchesTables keeps BENCHMARK.json and the driver's own tables
// equal and inside the contract's limits.
func TestContractMatchesTables(t *testing.T) {
	c := loadContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(c.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver; want 2 to 8", n, len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(c.EndToEnd), len(c.PerLayer))
	}
	seen := make(map[string]bool)
	same := func(kind string, got []contractMetric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != better(w) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the driver %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case w.bound == 0 && g.Bound != nil:
				t.Errorf("%s: per-layer metric has a bound", g.Name)
			case w.bound != 0 && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the driver", g.Name, g.Bound, w.bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1.5, 9, 2.5, 4, 7}, 2, 8},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestCompareVerdicts checks the rules of -compare on made-up documents: the
// bound on medians, unresolved when the runs' own spread exceeds the bound,
// failed shares (not counts), and a workload missing from the new document.
func TestCompareVerdicts(t *testing.T) {
	doc := func(workload string, setups []float64, attempted, failed int) *suiteDoc {
		d := &suiteDoc{}
		for i, setup := range setups {
			d.Runs = append(d.Runs, runRecord{Workload: workload, Seed: int64(i), Result: result{
				Correct: failed == 0, Attempted: attempted, Failed: failed,
				Metrics: map[string]value{"setup_s": {setup, "s"}},
			}})
		}
		return d
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		name                    string
		base, next              *suiteDoc
		regressions, unresolved int
	}{
		{"same", doc("w", steady, 10, 0), doc("w", steady, 10, 0), 0, 0},
		{"slower", doc("w", steady, 10, 0), doc("w", []float64{1.3, 1.31, 1.29, 1.3, 1.32}, 10, 0), 1, 0},
		{"noisy", doc("w", steady, 10, 0), doc("w", []float64{0.8, 1.3, 0.9, 1.2, 1.0}, 10, 0), 0, 1},
		{"same share, more jobs", doc("w", steady, 10, 1), doc("w", steady, 20, 2), 0, 0},
		{"higher share, fewer failures", doc("w", steady, 20, 2), doc("w", steady, 5, 1), 1, 0},
		{"workload gone", doc("w", steady, 10, 0), doc("other", steady, 10, 0), 1, 0},
	} {
		if r, u := compareDocs(tc.base, tc.next); r != tc.regressions || u != tc.unresolved {
			t.Errorf("%s: %d regressions, %d unresolved; want %d, %d", tc.name, r, u, tc.regressions, tc.unresolved)
		}
	}
}

// TestSmoke runs every workload at -tiny size through the real launch path —
// OS processes, sockets, the daemon for the placed workload — once untraced
// and once traced, and requires a clean run that emits exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real processes")
	}
	dir := t.TempDir()
	rankBin := filepath.Join(dir, "rank")
	if out, err := exec.Command("go", "build", "-o", rankBin, "./rank").CombinedOutput(); err != nil {
		t.Fatalf("build rank: %v\n%s", err, out)
	}
	t.Setenv("TMPDIR", dir)
	opt := options{rankBin: rankBin, workDir: dir, tiny: true, traceOut: filepath.Join(dir, "trace.json")}
	c := loadContract(t)

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(opt, w, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d jobs failed", w.name, traced, res.Failed, res.Attempted)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] not emitted (got %+v)", w.name, traced, m.Name, m.Unit, v)
				}
			}
			if traced && res.Metrics["perf.trace_mirror_diverged"].Value != 0 {
				t.Errorf("%s: traced mirror diverged", w.name)
			}
		}
	}
	if _, err := os.Stat(opt.traceOut); err != nil {
		t.Errorf("-traceout wrote nothing: %v", err)
	}
}
