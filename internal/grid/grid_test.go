package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadShapes(t *testing.T) {
	for _, c := range [][2]int{{0, 4}, {4, 0}, {-1, 4}, {4, -1}, {0, 0}} {
		if _, err := New(c[0], c[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", c[0], c[1])
		}
	}
}

func TestCellCenterRanges(t *testing.T) {
	g, _ := New(16, 32)
	for lat := 0; lat < g.NLat; lat++ {
		for lon := 0; lon < g.NLon; lon++ {
			phi, lambda := g.CellCenter(lat, lon)
			if phi <= -math.Pi/2 || phi >= math.Pi/2 {
				t.Fatalf("phi out of range: %g", phi)
			}
			if lambda < 0 || lambda >= 2*math.Pi {
				t.Fatalf("lambda out of range: %g", lambda)
			}
		}
	}
}

func TestCellAreaNormalized(t *testing.T) {
	g, _ := New(19, 24)
	norm := g.areaNorm()
	total := 0.0
	for lat := 0; lat < g.NLat; lat++ {
		total += g.cellArea(lat, norm) * float64(g.NLon)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("areas sum to %g", total)
	}
	// Equatorial cells are larger than polar cells.
	if g.cellArea(g.NLat/2, norm) <= g.cellArea(0, norm) {
		t.Error("equatorial cell not larger than polar cell")
	}
}

func TestDecompPartitionProperties(t *testing.T) {
	prop := func(nlatRaw, nlonRaw, pRaw uint8) bool {
		nlat := int(nlatRaw%64) + 1
		nlon := int(nlonRaw%8) + 1
		p := int(pRaw%16) + 1
		g, _ := New(nlat, nlon)
		d, err := NewDecomp(g, p)
		if err != nil {
			return false
		}
		// Bands are contiguous, non-overlapping, and cover [0, NLat).
		covered := 0
		maxCells, minCells := 0, math.MaxInt
		for proc := 0; proc < p; proc++ {
			lo, hi := d.Bands(proc)
			if lo != covered || hi < lo {
				return false
			}
			covered = hi
			cells := d.OwnedCells(proc)
			if cells != (hi-lo)*nlon {
				return false
			}
			if cells > maxCells {
				maxCells = cells
			}
			if cells < minCells {
				minCells = cells
			}
		}
		if covered != nlat {
			return false
		}
		// Balance: owners differ by at most one band.
		return maxCells-minCells <= nlon
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecompMoreProcsThanBands(t *testing.T) {
	g, _ := New(3, 4)
	d, err := NewDecomp(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	totalCells := 0
	for p := 0; p < 8; p++ {
		totalCells += d.OwnedCells(p)
	}
	if totalCells != g.Cells() {
		t.Errorf("cells %d, want %d", totalCells, g.Cells())
	}
}

func TestDecompErrors(t *testing.T) {
	g, _ := New(4, 4)
	if _, err := NewDecomp(g, 0); err == nil {
		t.Error("NewDecomp(0) accepted")
	}
	if _, err := NewDecomp(g, -2); err == nil {
		t.Error("NewDecomp(-2) accepted")
	}
}

func TestFieldFillAndAt(t *testing.T) {
	g, _ := New(8, 4)
	d, _ := NewDecomp(g, 3)
	for p := 0; p < 3; p++ {
		f := NewField(d, p)
		f.FillFunc(func(lat, lon int) float64 { return float64(lat*g.NLon + lon) })
		lo, hi := d.Bands(p)
		for lat := lo; lat < hi; lat++ {
			for lon := 0; lon < g.NLon; lon++ {
				v, err := f.At(lat, lon)
				if err != nil {
					t.Fatal(err)
				}
				if v != float64(lat*g.NLon+lon) {
					t.Fatalf("At(%d,%d) = %g", lat, lon, v)
				}
			}
		}
		if _, err := f.At(lo-1, 0); p > 0 && err == nil {
			t.Error("At outside slab accepted")
		}
	}
}

func TestFieldLocalSumsCombineToGlobal(t *testing.T) {
	g, _ := New(9, 5)
	d, _ := NewDecomp(g, 4)
	sum := 0.0
	wsum, wtot := 0.0, 0.0
	for p := 0; p < 4; p++ {
		f := NewField(d, p)
		f.FillFunc(func(lat, lon int) float64 { return 2.5 })
		sum += f.LocalSum()
		ws, w := f.LocalWeightedMean()
		wsum += ws
		wtot += w
	}
	if math.Abs(sum-2.5*float64(g.Cells())) > 1e-9 {
		t.Errorf("sum %g", sum)
	}
	// A constant field's weighted mean is the constant.
	if math.Abs(wsum/wtot-2.5) > 1e-12 {
		t.Errorf("weighted mean %g", wsum/wtot)
	}
}

// TestLocalWeightedMeanWeightsAreCellArea: LocalWeightedMean computes its
// normaliser once a call, and its weights must still be a band's area,
// g.cellArea(lat, g.areaNorm()), bit for bit. A one-hot field's weighted sum
// is exactly the weight of the hot cell's band; a general field's pair must
// equal a per-band reference that recomputes the normaliser every band.
func TestLocalWeightedMeanWeightsAreCellArea(t *testing.T) {
	for _, shape := range [][3]int{{19, 24, 1}, {19, 24, 4}, {12, 5, 12}, {384, 192, 2}} {
		g, _ := New(shape[0], shape[1])
		d, _ := NewDecomp(g, shape[2])
		for p := 0; p < d.P; p++ {
			f := NewField(d, p)
			lo, hi := d.Bands(p)
			for lat := lo; lat < hi; lat++ {
				i := (lat-lo)*g.NLon + lat%g.NLon
				f.Data[i] = 1
				ws, _ := f.LocalWeightedMean()
				f.Data[i] = 0
				if want := g.cellArea(lat, g.areaNorm()); math.Float64bits(ws) != math.Float64bits(want) {
					t.Fatalf("%dx%d band %d: weight %v, band area %v", g.NLat, g.NLon, lat, ws, want)
				}
			}
			f.FillFunc(func(lat, lon int) float64 { return math.Sin(float64(3*lat)) + float64(lon) })
			ws, w := f.LocalWeightedMean()
			refWS, refW := 0.0, 0.0
			for lat, idx := lo, 0; lat < hi; lat++ {
				a := g.cellArea(lat, g.areaNorm())
				for lon := 0; lon < g.NLon; lon++ {
					refWS += a * f.Data[idx]
					refW += a
					idx++
				}
			}
			if math.Float64bits(ws) != math.Float64bits(refWS) || math.Float64bits(w) != math.Float64bits(refW) {
				t.Fatalf("%dx%d proc %d: (%v, %v), band-area reference (%v, %v)", g.NLat, g.NLon, p, ws, w, refWS, refW)
			}
		}
	}
}

// BenchmarkLocalWeightedMean times one call on a coupler slab of the
// benchmark's couple_bulk workload: a 384x192 grid over two coupler ranks.
func BenchmarkLocalWeightedMean(b *testing.B) {
	g, _ := New(384, 192)
	d, _ := NewDecomp(g, 2)
	f := NewField(d, 0)
	f.FillFunc(func(lat, lon int) float64 { return float64(lat + lon) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWS, sinkW = f.LocalWeightedMean()
	}
}

// sinkWS and sinkW keep the benchmarked call from being optimised away.
var sinkWS, sinkW float64
