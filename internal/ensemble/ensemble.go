// Package ensemble provides the on-the-fly ensemble statistics and dynamic
// steering that motivate MPH's multi-instance mode (paper §2.5): when K
// replicas of a model run simultaneously, a statistics component can (a)
// aggregate instantaneous fields into running moments without storing any
// output, (b) compute nonlinear order statistics — impossible to recover
// from per-run time averages — and (c) adjust the future direction of each
// instance at run time.
package ensemble

import (
	"fmt"
	"math"
	"sort"
)

// Moments accumulates per-cell running mean and variance over samples
// using Welford's algorithm, which is numerically stable for long runs.
type Moments struct {
	n    int64
	mean []float64
	m2   []float64
}

// NewMoments creates an accumulator for samples of the given cell count.
func NewMoments(cells int) (*Moments, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("ensemble: moments over %d cells", cells)
	}
	return &Moments{mean: make([]float64, cells), m2: make([]float64, cells)}, nil
}

// Add folds one sample into the accumulator.
func (m *Moments) Add(sample []float64) error {
	if len(sample) != len(m.mean) {
		return fmt.Errorf("ensemble: sample has %d cells, want %d", len(sample), len(m.mean))
	}
	m.n++
	inv := 1 / float64(m.n)
	for i, x := range sample {
		d := x - m.mean[i]
		m.mean[i] += d * inv
		m.m2[i] += d * (x - m.mean[i])
	}
	return nil
}

// N returns the number of samples folded in.
func (m *Moments) N() int64 { return m.n }

// Mean returns a copy of the per-cell running mean.
func (m *Moments) Mean() []float64 { return append([]float64(nil), m.mean...) }

// Variance returns a copy of the per-cell sample variance (n-1 divisor).
// With fewer than two samples it is all zeros.
func (m *Moments) Variance() []float64 {
	out := make([]float64, len(m.m2))
	if m.n < 2 {
		return out
	}
	inv := 1 / float64(m.n-1)
	for i, v := range m.m2 {
		out[i] = v * inv
	}
	return out
}

// StdDev returns the per-cell sample standard deviation.
func (m *Moments) StdDev() []float64 {
	out := m.Variance()
	for i, v := range out {
		out[i] = math.Sqrt(v)
	}
	return out
}

// Merge folds another accumulator into this one (Chan et al. parallel
// combination), enabling tree reductions of partial statistics.
func (m *Moments) Merge(other *Moments) error {
	if len(other.mean) != len(m.mean) {
		return fmt.Errorf("ensemble: merging %d cells into %d", len(other.mean), len(m.mean))
	}
	if other.n == 0 {
		return nil
	}
	if m.n == 0 {
		m.n = other.n
		copy(m.mean, other.mean)
		copy(m.m2, other.m2)
		return nil
	}
	na, nb := float64(m.n), float64(other.n)
	tot := na + nb
	for i := range m.mean {
		d := other.mean[i] - m.mean[i]
		m.mean[i] += d * nb / tot
		m.m2[i] += other.m2[i] + d*d*na*nb/tot
	}
	m.n += other.n
	return nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of vals with linear
// interpolation between order statistics. vals is not modified.
func Quantile(vals []float64, q float64) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("ensemble: quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("ensemble: quantile %g out of [0,1]", q)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// CellQuantiles computes a per-cell quantile across K member fields: the
// nonlinear order statistic of paper §2.5(a) that "cannot be done if the K
// runs are performed as independent runs". members[k] is member k's field;
// all must share a length.
func CellQuantiles(members [][]float64, q float64) ([]float64, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ensemble: no members")
	}
	cells := len(members[0])
	for k, m := range members {
		if len(m) != cells {
			return nil, fmt.Errorf("ensemble: member %d has %d cells, want %d", k, len(m), cells)
		}
	}
	out := make([]float64, cells)
	column := make([]float64, len(members))
	for i := 0; i < cells; i++ {
		for k, m := range members {
			column[k] = m[i]
		}
		v, err := Quantile(column, q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// EnsembleMean averages K member fields cell by cell.
func EnsembleMean(members [][]float64) ([]float64, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ensemble: no members")
	}
	cells := len(members[0])
	out := make([]float64, cells)
	for k, m := range members {
		if len(m) != cells {
			return nil, fmt.Errorf("ensemble: member %d has %d cells, want %d", k, len(m), cells)
		}
		for i, x := range m {
			out[i] += x
		}
	}
	inv := 1 / float64(len(members))
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// Controller implements the dynamic steering of paper §2.5(b): "based on
// simulation results on the current K runs, the future simulation direction
// can be dynamically adjusted at real time". It is a proportional
// controller nudging each member's control parameter so the member's
// diagnostic approaches the ensemble target.
type Controller struct {
	// Target is the desired value of the steered diagnostic.
	Target float64
	// Gain scales corrections; 0 < Gain ≤ 1 for stable steering.
	Gain float64
}

// Adjust returns one additive control correction per member, given each
// member's current diagnostic value.
func (c Controller) Adjust(diagnostics []float64) []float64 {
	out := make([]float64, len(diagnostics))
	for i, d := range diagnostics {
		out[i] = c.Gain * (c.Target - d)
	}
	return out
}

// Spread returns the max-min spread of the members' diagnostics, the usual
// convergence measure for steered ensembles.
func Spread(diagnostics []float64) float64 {
	if len(diagnostics) == 0 {
		return 0
	}
	lo, hi := diagnostics[0], diagnostics[0]
	for _, d := range diagnostics[1:] {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return hi - lo
}
