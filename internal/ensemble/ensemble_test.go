package ensemble

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMomentsAgainstDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const cells, samples = 5, 200
	m, err := NewMoments(cells)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]float64, samples)
	for s := range data {
		row := make([]float64, cells)
		for i := range row {
			row[i] = rng.NormFloat64()*3 + 10
		}
		data[s] = row
		if err := m.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if m.N() != samples {
		t.Fatalf("N = %d", m.N())
	}
	mean := m.Mean()
	variance := m.Variance()
	for i := 0; i < cells; i++ {
		var sum float64
		for s := range data {
			sum += data[s][i]
		}
		directMean := sum / samples
		var ss float64
		for s := range data {
			d := data[s][i] - directMean
			ss += d * d
		}
		directVar := ss / (samples - 1)
		if math.Abs(mean[i]-directMean) > 1e-10 {
			t.Errorf("cell %d mean %g vs %g", i, mean[i], directMean)
		}
		if math.Abs(variance[i]-directVar) > 1e-9 {
			t.Errorf("cell %d var %g vs %g", i, variance[i], directVar)
		}
	}
}

func TestMomentsEdgeCases(t *testing.T) {
	if _, err := NewMoments(0); err == nil {
		t.Error("zero cells accepted")
	}
	m, _ := NewMoments(2)
	if err := m.Add([]float64{1}); err == nil {
		t.Error("wrong sample length accepted")
	}
	// Variance with < 2 samples is zero.
	m.Add([]float64{3, 4})
	for _, v := range m.Variance() {
		if v != 0 {
			t.Error("variance nonzero after one sample")
		}
	}
	for _, v := range m.StdDev() {
		if v != 0 {
			t.Error("stddev nonzero after one sample")
		}
	}
}

func TestQuantileKnownValues(t *testing.T) {
	vals := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3, 2}, {0.25, 1.75},
	}
	for _, tc := range cases {
		got, err := Quantile(vals, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Input must not be mutated.
	if vals[0] != 4 {
		t.Error("Quantile sorted its input")
	}
	med, err := Quantile([]float64{9}, 0.5)
	if err != nil || med != 9 {
		t.Errorf("median of one value = %g, %v", med, err)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty sample accepted")
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Quantile([]float64{1}, q); err == nil {
			t.Errorf("q=%v accepted", q)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1, err1 := Quantile(raw, 0.25)
		q2, err2 := Quantile(raw, 0.75)
		if err1 != nil || err2 != nil {
			return false
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return q1 <= q2 && q1 >= sorted[0] && q2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellQuantilesAndMean(t *testing.T) {
	members := [][]float64{
		{1, 10, 100},
		{2, 20, 200},
		{3, 30, 300},
	}
	med, err := CellQuantiles(members, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 20, 200}
	for i := range want {
		if med[i] != want[i] {
			t.Errorf("median[%d] = %g", i, med[i])
		}
	}
	mean, err := EnsembleMean(members)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want { // symmetric members: mean == median
		if mean[i] != w {
			t.Errorf("mean[%d] = %g", i, mean[i])
		}
	}
	// Ragged members rejected.
	if _, err := CellQuantiles([][]float64{{1}, {1, 2}}, 0.5); err == nil {
		t.Error("ragged members accepted by CellQuantiles")
	}
	if _, err := EnsembleMean([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged members accepted by EnsembleMean")
	}
	if _, err := CellQuantiles(nil, 0.5); err == nil {
		t.Error("empty members accepted")
	}
	if _, err := EnsembleMean(nil); err == nil {
		t.Error("empty members accepted")
	}
}

func TestMedianIsNotRecoverableFromMeans(t *testing.T) {
	// The paper's point: nonlinear order statistics differ from what
	// post-processing of independent-run means could give.
	members := [][]float64{{0}, {0}, {100}}
	med, _ := CellQuantiles(members, 0.5)
	mean, _ := EnsembleMean(members)
	if med[0] == mean[0] {
		t.Error("median equals mean for a skewed ensemble; test is vacuous")
	}
	if med[0] != 0 {
		t.Errorf("median %g, want 0", med[0])
	}
}

func TestControllerDrivesTowardTarget(t *testing.T) {
	c := Controller{Target: 50, Gain: 0.5}
	// Toy dynamics: each member's diagnostic responds directly to its
	// control value.
	controls := []float64{0, 20, 90}
	diag := func(u float64) float64 { return u }
	for iter := 0; iter < 40; iter++ {
		ds := make([]float64, len(controls))
		for i, u := range controls {
			ds[i] = diag(u)
		}
		adj := c.Adjust(ds)
		for i := range controls {
			controls[i] += adj[i]
		}
	}
	ds := make([]float64, len(controls))
	for i, u := range controls {
		ds[i] = diag(u)
	}
	if Spread(ds) > 1e-6 {
		t.Errorf("spread %g after steering", Spread(ds))
	}
	for _, d := range ds {
		if math.Abs(d-50) > 1e-6 {
			t.Errorf("diagnostic %g, want 50", d)
		}
	}
}

func TestSpread(t *testing.T) {
	if Spread(nil) != 0 {
		t.Error("spread of empty")
	}
	if Spread([]float64{5}) != 0 {
		t.Error("spread of singleton")
	}
	if got := Spread([]float64{3, -1, 7}); got != 8 {
		t.Errorf("spread = %g", got)
	}
}
