// Package grid provides the lat-lon grids and block decompositions used by
// the toy climate components. Every CCSM-style component in this repo owns
// a rectangular logical grid partitioned over its processors; package xfer
// moves fields between two components' decompositions through an
// MPH-joined communicator.
package grid

import (
	"fmt"
	"math"
)

// Grid is a rectangular logical grid of NLat x NLon cells covering the
// sphere. Cell (i, j) spans latitude band i and longitude band j.
type Grid struct {
	NLat, NLon int
}

// New creates a grid, validating the shape.
func New(nlat, nlon int) (Grid, error) {
	if nlat <= 0 || nlon <= 0 {
		return Grid{}, fmt.Errorf("grid: invalid shape %dx%d", nlat, nlon)
	}
	return Grid{NLat: nlat, NLon: nlon}, nil
}

// Cells returns the total number of grid cells.
func (g Grid) Cells() int { return g.NLat * g.NLon }

// CellCenter returns the latitude and longitude of a cell center in
// radians: latitude in (-π/2, π/2), longitude in [0, 2π).
func (g Grid) CellCenter(lat, lon int) (phi, lambda float64) {
	phi = -math.Pi/2 + (float64(lat)+0.5)*math.Pi/float64(g.NLat)
	lambda = (float64(lon) + 0.5) * 2 * math.Pi / float64(g.NLon)
	return phi, lambda
}

// areaNorm is cellArea's divisor, O(NLat) to compute: the sum of cos(phi_i)
// over bands times NLon normalizes the total.
func (g Grid) areaNorm() float64 {
	total := 0.0
	for i := 0; i < g.NLat; i++ {
		p, _ := g.CellCenter(i, 0)
		total += math.Cos(p)
	}
	return total * float64(g.NLon)
}

// cellArea returns the relative area weight of a latitude band's cells
// (proportional to cos of latitude), normalized by norm, which areaNorm
// computes so that weights over the whole grid sum to 1.
func (g Grid) cellArea(lat int, norm float64) float64 {
	phi, _ := g.CellCenter(lat, 0)
	return math.Cos(phi) / norm
}

// Decomp is a 1-D block decomposition of a grid's latitude bands over P
// processors: processor p owns a contiguous band range (rows are kept whole
// so east-west neighbor access is local).
type Decomp struct {
	Grid  Grid
	P     int
	start []int   // start[p] = first lat band of processor p; start[P] = NLat
	norm  float64 // Grid.areaNorm(), cellArea's divisor
}

// NewDecomp partitions g's latitude bands over p processors as evenly as
// possible (the first NLat mod p processors get one extra band). p may
// exceed NLat, in which case trailing processors own zero bands.
func NewDecomp(g Grid, p int) (*Decomp, error) {
	if p <= 0 {
		return nil, fmt.Errorf("grid: decomposition over %d processors", p)
	}
	d := &Decomp{Grid: g, P: p, start: make([]int, p+1), norm: g.areaNorm()}
	base, extra := g.NLat/p, g.NLat%p
	pos := 0
	for i := 0; i < p; i++ {
		d.start[i] = pos
		pos += base
		if i < extra {
			pos++
		}
	}
	d.start[p] = g.NLat
	return d, nil
}

// Bands returns the half-open latitude band range [lo, hi) owned by
// processor p.
func (d *Decomp) Bands(p int) (lo, hi int) { return d.start[p], d.start[p+1] }

// OwnedCells returns the number of cells owned by processor p.
func (d *Decomp) OwnedCells(p int) int {
	lo, hi := d.Bands(p)
	return (hi - lo) * d.Grid.NLon
}

// Field is a processor-local slab of a distributed scalar field: the cells
// of the owner's latitude bands in row-major order.
type Field struct {
	Decomp *Decomp
	P      int // owning processor
	Data   []float64
}

// NewField allocates processor p's slab of a field on d, zero-filled.
func NewField(d *Decomp, p int) *Field {
	return &Field{Decomp: d, P: p, Data: make([]float64, d.OwnedCells(p))}
}

// FillFunc sets every owned cell from a function of its global (lat, lon).
func (f *Field) FillFunc(fn func(lat, lon int) float64) {
	lo, hi := f.Decomp.Bands(f.P)
	idx := 0
	for lat := lo; lat < hi; lat++ {
		for lon := 0; lon < f.Decomp.Grid.NLon; lon++ {
			f.Data[idx] = fn(lat, lon)
			idx++
		}
	}
}

// At returns the value at global (lat, lon), which must be owned by this
// processor's slab.
func (f *Field) At(lat, lon int) (float64, error) {
	lo, hi := f.Decomp.Bands(f.P)
	if lat < lo || lat >= hi || lon < 0 || lon >= f.Decomp.Grid.NLon {
		return 0, fmt.Errorf("grid: cell (%d,%d) not owned by processor %d", lat, lon, f.P)
	}
	return f.Data[(lat-lo)*f.Decomp.Grid.NLon+lon], nil
}

// LocalSum returns the sum of the owned cells (building block for global
// reductions).
func (f *Field) LocalSum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// LocalWeightedMean returns the area-weighted partial sum of the slab and
// the slab's total weight; combining the pairs across processors yields the
// global mean. The weights are cellArea's, with its divisor computed once a
// decomposition rather than once a band.
func (f *Field) LocalWeightedMean() (weightedSum, weight float64) {
	return f.Decomp.WeightedSum(f.P, 0, f.Data, 0, 0)
}

// WeightedSum continues LocalWeightedMean's running pair over cells
// [lo, lo+len(data)) of processor p's slab, which hold data. Continued from
// zero over consecutive pieces of the slab in ascending order, it returns
// LocalWeightedMean's pair bit for bit: the same additions in the same order.
func (d *Decomp) WeightedSum(p, lo int, data []float64, weightedSum, weight float64) (float64, float64) {
	band, _ := d.Bands(p)
	lat, lon := band+lo/d.Grid.NLon, lo%d.Grid.NLon
	for len(data) > 0 {
		w := d.Grid.cellArea(lat, d.norm)
		n := min(d.Grid.NLon-lon, len(data))
		for _, v := range data[:n] {
			weightedSum += w * v
			weight += w
		}
		data, lat, lon = data[n:], lat+1, 0
	}
	return weightedSum, weight
}
