// Package histogram provides the 1D and 2D histogram value types used
// throughout the system, together with uniform (equal-width) and adaptive
// (equal-weight) bin boundary computation.
//
// Adaptive boundaries are derived the way the paper describes FastBit
// doing it: a finer-resolution uniform histogram is computed first and its
// bins are merged until each merged bin holds approximately the same
// number of records (Section V-A1).
package histogram

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// checkpointRows is the cancellation checkpoint interval of the binning
// loops: ctx is tested once every checkpointRows values, keeping the
// per-value overhead to a mask-and-compare.
const checkpointRows = 64 * 1024

// Binning selects between the two bin-boundary strategies compared in the
// paper (Section III-A3).
type Binning int

const (
	// Uniform bins have equal width; well suited to high-resolution views.
	Uniform Binning = iota
	// Adaptive bins hold approximately equal record counts; well suited to
	// low level-of-detail views.
	Adaptive
)

func (b Binning) String() string {
	switch b {
	case Uniform:
		return "uniform"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Binning(%d)", int(b))
	}
}

// AdaptiveRefine is the oversampling factor used when deriving adaptive
// boundaries from a fine uniform histogram.
const AdaptiveRefine = 8

// UniformEdges returns n+1 equally spaced edges spanning [lo, hi]. When
// lo == hi the range is widened by a tiny amount so every bin has positive
// width.
func UniformEdges(lo, hi float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		w := math.Abs(lo) * 1e-9
		if w == 0 {
			w = 1e-9
		}
		hi = lo + w
	}
	// Guard against ranges too narrow to split into n representable
	// steps at this magnitude: widen hi until each step moves the float.
	ulp := math.Nextafter(math.Max(math.Abs(lo), math.Abs(hi)), math.Inf(1)) -
		math.Max(math.Abs(lo), math.Abs(hi))
	if minSpan := 4 * float64(n) * ulp; hi-lo < minSpan {
		hi = lo + minSpan
	}
	edges := make([]float64, n+1)
	step := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		edges[i] = lo + float64(i)*step
	}
	edges[n] = hi // avoid accumulated rounding at the top edge
	// Final guard: nudge any residual non-increasing neighbours.
	for i := 1; i <= n; i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = math.Nextafter(edges[i-1], math.Inf(1))
		}
	}
	if edges[n] < hi {
		edges[n] = hi
	}
	return edges
}

// Locator maps values to bin indices for a fixed set of edges. It detects
// uniform spacing and uses a direct formula in that case; otherwise it
// falls back to binary search. The final bin's upper edge is inclusive so
// the maximum value of a dataset lands in the last bin.
type Locator struct {
	edges   []float64
	lo, hi  float64
	inv     float64
	n       int
	uniform bool
}

// NewLocator builds a Locator for the given strictly increasing edges.
func NewLocator(edges []float64) (*Locator, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("histogram: need at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("histogram: edges not strictly increasing at %d", i)
		}
	}
	n := len(edges) - 1
	l := &Locator{edges: edges, lo: edges[0], hi: edges[n], n: n}
	step := (l.hi - l.lo) / float64(n)
	l.uniform = true
	for i := 1; i < n; i++ {
		if math.Abs(edges[i]-(l.lo+float64(i)*step)) > step*1e-9 {
			l.uniform = false
			break
		}
	}
	if l.uniform && step > 0 {
		l.inv = 1 / step
	}
	return l, nil
}

// Bins returns the number of bins.
func (l *Locator) Bins() int { return l.n }

// Edges returns the edge slice (not a copy; callers must not mutate).
func (l *Locator) Edges() []float64 { return l.edges }

// Bin returns the bin index for v, or -1 when v lies outside [lo, hi].
func (l *Locator) Bin(v float64) int {
	if v < l.lo || v > l.hi {
		return -1
	}
	if v == l.hi {
		return l.n - 1
	}
	if l.uniform {
		i := int((v - l.lo) * l.inv)
		// Guard against floating point rounding at edges.
		if i >= l.n {
			i = l.n - 1
		}
		for i > 0 && v < l.edges[i] {
			i--
		}
		for i < l.n-1 && v >= l.edges[i+1] {
			i++
		}
		return i
	}
	// sort.SearchFloat64s finds the first edge > v, minus one.
	i := sort.SearchFloat64s(l.edges, v)
	if i < len(l.edges) && l.edges[i] == v {
		return minInt(i, l.n-1)
	}
	return i - 1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Hist1D is a one-dimensional histogram.
type Hist1D struct {
	Var    string    // variable name, e.g. "px"
	Edges  []float64 // len Bins+1, strictly increasing
	Counts []uint64  // len Bins
}

// Bins returns the number of bins.
func (h *Hist1D) Bins() int { return len(h.Counts) }

// Total returns the total record count across all bins.
func (h *Hist1D) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// MaxCount returns the largest single-bin count.
func (h *Hist1D) MaxCount() uint64 {
	var m uint64
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Width returns the width of bin i.
func (h *Hist1D) Width(i int) float64 { return h.Edges[i+1] - h.Edges[i] }

// Density returns count/width for bin i, the quantity the paper uses for
// brightness and draw ordering with adaptive bins.
func (h *Hist1D) Density(i int) float64 {
	w := h.Width(i)
	if w <= 0 {
		return 0
	}
	return float64(h.Counts[i]) / w
}

// Merge adds another histogram with identical edges into h.
func (h *Hist1D) Merge(o *Hist1D) error {
	if len(h.Edges) != len(o.Edges) {
		return fmt.Errorf("histogram: merge edge count mismatch %d vs %d", len(h.Edges), len(o.Edges))
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	return nil
}

// Compute1DCtx builds a 1D histogram of values over the given edges.
// Values outside the edge range are ignored. The binning loop aborts with
// ctx.Err() within checkpointRows values of ctx being canceled.
func Compute1DCtx(ctx context.Context, name string, values []float64, edges []float64) (*Hist1D, error) {
	loc, err := NewLocator(edges)
	if err != nil {
		return nil, err
	}
	h := &Hist1D{Var: name, Edges: edges, Counts: make([]uint64, loc.Bins())}
	for row, v := range values {
		if row&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if i := loc.Bin(v); i >= 0 {
			h.Counts[i]++
		}
	}
	return h, nil
}

// Hist2D is a two-dimensional histogram over an (X, Y) variable pair.
// Counts are stored row-major: Counts[iy*XBins + ix].
type Hist2D struct {
	XVar, YVar     string
	XEdges, YEdges []float64
	Counts         []uint64
}

// XBins returns the number of bins along X.
func (h *Hist2D) XBins() int { return len(h.XEdges) - 1 }

// YBins returns the number of bins along Y.
func (h *Hist2D) YBins() int { return len(h.YEdges) - 1 }

// At returns the count in bin (ix, iy).
func (h *Hist2D) At(ix, iy int) uint64 { return h.Counts[iy*h.XBins()+ix] }

// Total returns the total record count across all bins.
func (h *Hist2D) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// MaxCount returns the largest single-bin count.
func (h *Hist2D) MaxCount() uint64 {
	var m uint64
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Area returns the area of bin (ix, iy).
func (h *Hist2D) Area(ix, iy int) float64 {
	return (h.XEdges[ix+1] - h.XEdges[ix]) * (h.YEdges[iy+1] - h.YEdges[iy])
}

// Density returns the record density h(i,j)/a(i,j) of bin (ix, iy), the
// quantity the paper uses to order and shade adaptively binned plots.
func (h *Hist2D) Density(ix, iy int) float64 {
	a := h.Area(ix, iy)
	if a <= 0 {
		return 0
	}
	return float64(h.At(ix, iy)) / a
}

// MaxDensity returns the largest bin density.
func (h *Hist2D) MaxDensity() float64 {
	var m float64
	for iy := 0; iy < h.YBins(); iy++ {
		for ix := 0; ix < h.XBins(); ix++ {
			if d := h.Density(ix, iy); d > m {
				m = d
			}
		}
	}
	return m
}

// NonEmpty calls fn for every bin with a nonzero count.
func (h *Hist2D) NonEmpty(fn func(ix, iy int, count uint64)) {
	nx := h.XBins()
	for iy := 0; iy < h.YBins(); iy++ {
		row := h.Counts[iy*nx : (iy+1)*nx]
		for ix, c := range row {
			if c != 0 {
				fn(ix, iy, c)
			}
		}
	}
}

// Merge adds another histogram with identical edges into h.
func (h *Hist2D) Merge(o *Hist2D) error {
	if len(h.XEdges) != len(o.XEdges) || len(h.YEdges) != len(o.YEdges) {
		return fmt.Errorf("histogram: merge shape mismatch (%d,%d) vs (%d,%d)",
			len(h.XEdges), len(h.YEdges), len(o.XEdges), len(o.YEdges))
	}
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
	return nil
}

// MarginalX sums the 2D histogram along Y, yielding the X marginal.
func (h *Hist2D) MarginalX() *Hist1D {
	m := &Hist1D{Var: h.XVar, Edges: h.XEdges, Counts: make([]uint64, h.XBins())}
	nx := h.XBins()
	for iy := 0; iy < h.YBins(); iy++ {
		for ix := 0; ix < nx; ix++ {
			m.Counts[ix] += h.Counts[iy*nx+ix]
		}
	}
	return m
}

// MarginalY sums the 2D histogram along X, yielding the Y marginal.
func (h *Hist2D) MarginalY() *Hist1D {
	m := &Hist1D{Var: h.YVar, Edges: h.YEdges, Counts: make([]uint64, h.YBins())}
	nx := h.XBins()
	for iy := 0; iy < h.YBins(); iy++ {
		for ix := 0; ix < nx; ix++ {
			m.Counts[iy] += h.Counts[iy*nx+ix]
		}
	}
	return m
}

// Compute2D is Compute2DCtx without cancellation. It is the one
// ctx-less twin left on the query path: the benchmark ledger's trace
// calls it by this name, so it goes with the next benchmark change.
func Compute2D(xvar, yvar string, xs, ys []float64, xedges, yedges []float64) (*Hist2D, error) {
	return Compute2DCtx(context.Background(), xvar, yvar, xs, ys, xedges, yedges)
}

// Compute2DCtx builds a 2D histogram of paired (xs, ys) values over the
// given edges, with cooperative cancellation at checkpointRows intervals.
// Pairs with either coordinate outside its range are ignored.
func Compute2DCtx(ctx context.Context, xvar, yvar string, xs, ys []float64, xedges, yedges []float64) (*Hist2D, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("histogram: length mismatch %d vs %d", len(xs), len(ys))
	}
	lx, err := NewLocator(xedges)
	if err != nil {
		return nil, fmt.Errorf("histogram: x edges: %w", err)
	}
	ly, err := NewLocator(yedges)
	if err != nil {
		return nil, fmt.Errorf("histogram: y edges: %w", err)
	}
	h := &Hist2D{
		XVar: xvar, YVar: yvar,
		XEdges: xedges, YEdges: yedges,
		Counts: make([]uint64, lx.Bins()*ly.Bins()),
	}
	nx := lx.Bins()
	for i := range xs {
		if i&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ix := lx.Bin(xs[i])
		if ix < 0 {
			continue
		}
		iy := ly.Bin(ys[i])
		if iy < 0 {
			continue
		}
		h.Counts[iy*nx+ix]++
	}
	return h, nil
}
