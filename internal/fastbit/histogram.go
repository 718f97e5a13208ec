package fastbit

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/bitmap"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/scan"
)

// Histogram2DCtx computes a 2D histogram, conditional when cond is
// non-nil.
//
// The unconditional path reads both columns fully and bins them with a
// flat counts array — like FastBit, it must examine every record, so its
// cost is insensitive to the bin count (paper Fig. 11).
//
// The conditional path is FastBit's two-step algorithm (paper Section
// V-A2): (1) evaluate the condition against the bitmap indexes, producing
// the matching record positions; (2) gather the two columns' values at
// those positions into an intermediate array and bin them. The
// intermediate array has one element per hit, which is why index-assisted
// histograms win for selective conditions and lose to a sequential scan
// once the selection approaches the whole dataset.
//
// ctx is observed during condition evaluation and during the binning pass
// over the gathered values.
func (ev *Evaluator) Histogram2DCtx(ctx context.Context, cond query.Expr, spec histogram.Spec2D) (*histogram.Hist2D, error) {
	if ev.Raw == nil {
		return nil, fmt.Errorf("fastbit: histograms require a raw reader")
	}
	var xs, ys []float64
	if cond == nil {
		_, gsp := obs.StartSpan(ctx, "gather-values")
		var err error
		if xs, err = ev.Raw.Column(spec.XVar); err != nil {
			gsp.End()
			return nil, err
		}
		if ys, err = ev.Raw.Column(spec.YVar); err != nil {
			gsp.End()
			return nil, err
		}
		gsp.End()
	} else {
		hits, err := ev.EvalCtx(ctx, cond)
		if err != nil {
			return nil, err
		}
		_, gsp := obs.StartSpan(ctx, "gather-values")
		positions := hits.Positions()
		gsp.SetAttr("hits", strconv.Itoa(len(positions)))
		if xs, err = ev.Raw.ValuesAt(spec.XVar, positions); err != nil {
			gsp.End()
			return nil, err
		}
		if ys, err = ev.Raw.ValuesAt(spec.YVar, positions); err != nil {
			gsp.End()
			return nil, err
		}
		gsp.End()
	}
	bctx, bsp := obs.StartSpan(ctx, "histogram-binning")
	h, err := binPairs(bctx, xs, ys, spec, ev)
	bsp.End()
	return h, err
}

// indexOrNil resolves an index, returning nil when unavailable; used
// where the index is an optimisation (range metadata) rather than a
// requirement.
func (ev *Evaluator) indexOrNil(name string) *Index {
	ix, err := ev.index(name)
	if err != nil {
		return nil
	}
	return ix
}

// Histogram1DCtx computes a 1D histogram, conditional when cond is
// non-nil, using the same two-step strategy as Histogram2DCtx, with
// cooperative cancellation.
func (ev *Evaluator) Histogram1DCtx(ctx context.Context, cond query.Expr, spec histogram.Spec1D) (*histogram.Hist1D, error) {
	if ev.Raw == nil {
		return nil, fmt.Errorf("fastbit: histograms require a raw reader")
	}
	var vs []float64
	if cond == nil {
		// Unconditional 1D histograms aligned with the index bins come
		// straight from bitmap counts, with no data access at all: this is
		// the "efficient method for computing a histogram" of Section II-B.
		if ix := ev.indexOrNil(spec.Var); ix != nil && !spec.HasRange() &&
			spec.Binning == histogram.Uniform && spec.Bins == ix.Bins() && ix.Precision == 0 {
			return &histogram.Hist1D{
				Var:    spec.Var,
				Edges:  append([]float64(nil), ix.Bounds...),
				Counts: ix.BinCounts(),
			}, nil
		}
		var err error
		if vs, err = ev.Raw.Column(spec.Var); err != nil {
			return nil, err
		}
	} else {
		hits, err := ev.EvalCtx(ctx, cond)
		if err != nil {
			return nil, err
		}
		_, gsp := obs.StartSpan(ctx, "gather-values")
		if vs, err = ev.Raw.ValuesAt(spec.Var, hits.Positions()); err != nil {
			gsp.End()
			return nil, err
		}
		gsp.End()
	}
	lo, hi := spec.Lo, spec.Hi
	if !spec.HasRange() {
		lo, hi = scan.MinMax(vs)
	}
	var edges []float64
	var err error
	if spec.Binning == histogram.Adaptive {
		edges, err = histogram.AdaptiveEdges(vs, lo, hi, spec.Bins, spec.MinDensity)
		if err != nil {
			return nil, err
		}
	} else {
		edges = histogram.UniformEdges(lo, hi, spec.Bins)
	}
	bctx, bsp := obs.StartSpan(ctx, "histogram-binning")
	h, err := histogram.Compute1DCtx(bctx, spec.Var, vs, edges)
	bsp.End()
	return h, err
}

// Histogram1DFromBitmapsCtx computes a conditional 1D histogram entirely
// in index space: the condition's bitmap is ANDed with every bin bitmap of
// the variable's index and the ones are counted. No raw data is touched.
// The bin boundaries are the index's own; this is the algorithm family of
// Stockinger et al. for conditional histograms on SMP machines (paper
// Section II-C), provided here as the ablation counterpart to the
// two-step gather-then-bin strategy used by Histogram1DCtx/2DCtx. ctx is
// observed during condition evaluation.
func (ev *Evaluator) Histogram1DFromBitmapsCtx(ctx context.Context, cond query.Expr, name string) (*histogram.Hist1D, error) {
	ix, err := ev.index(name)
	if err != nil {
		return nil, err
	}
	h := &histogram.Hist1D{
		Var:    name,
		Edges:  append([]float64(nil), ix.Bounds...),
		Counts: make([]uint64, ix.Bins()),
	}
	if cond == nil {
		copy(h.Counts, ix.BinCounts())
		return h, nil
	}
	hits, err := ev.EvalCtx(ctx, cond)
	if err != nil {
		return nil, err
	}
	for b, bm := range ix.Bitmaps {
		h.Counts[b] = hits.AndCount(bm)
	}
	return h, nil
}

// Histogram2DFromBitmapsCtx computes a (conditional) 2D histogram
// entirely in index space: for every (x-bin, y-bin) cell the two bin
// bitmaps — and the condition bitmap, when present — are intersected and
// counted. No raw data is touched; the cell grid is the cross product of
// the two indexes' bins, which is exactly the histogram "cross product"
// interface of the paper's network-analysis predecessor (Section II-C).
// Quadratic in bin count, so intended for coarse overview grids. ctx is
// observed per y-bin row of the cell grid.
func (ev *Evaluator) Histogram2DFromBitmapsCtx(ctx context.Context, cond query.Expr, xvar, yvar string) (*histogram.Hist2D, error) {
	ixX, err := ev.index(xvar)
	if err != nil {
		return nil, err
	}
	ixY, err := ev.index(yvar)
	if err != nil {
		return nil, err
	}
	h := &histogram.Hist2D{
		XVar: xvar, YVar: yvar,
		XEdges: append([]float64(nil), ixX.Bounds...),
		YEdges: append([]float64(nil), ixY.Bounds...),
		Counts: make([]uint64, ixX.Bins()*ixY.Bins()),
	}
	var hits *bitmap.Vector
	if cond != nil {
		if hits, err = ev.EvalCtx(ctx, cond); err != nil {
			return nil, err
		}
	}
	nx := ixX.Bins()
	for iy, bmY := range ixY.Bitmaps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := bmY
		if hits != nil {
			row = bmY.And(hits)
		}
		if row.Count() == 0 {
			continue
		}
		for ix, bmX := range ixX.Bitmaps {
			if c := row.AndCount(bmX); c != 0 {
				h.Counts[iy*nx+ix] = c
			}
		}
	}
	return h, nil
}

// binPairs bins gathered (x, y) pairs per the spec. Unset ranges fall back
// to the column index's min/max when available (no data pass needed) and
// otherwise to a min/max scan of the gathered values — the extra work the
// paper observes for adaptive binning over large selections.
func binPairs(ctx context.Context, xs, ys []float64, spec histogram.Spec2D, ev *Evaluator) (*histogram.Hist2D, error) {
	ixX, ixY := ev.indexOrNil(spec.XVar), ev.indexOrNil(spec.YVar)
	xlo, xhi := rangeFor(xs, spec.XLo, spec.XHi, spec.HasXRange(), ixX, len(xs) == indexLen(ixX))
	ylo, yhi := rangeFor(ys, spec.YLo, spec.YHi, spec.HasYRange(), ixY, len(ys) == indexLen(ixY))

	var xEdges, yEdges []float64
	var err error
	if spec.Binning == histogram.Adaptive {
		if xEdges, err = histogram.AdaptiveEdges(xs, xlo, xhi, spec.XBins, spec.MinDensity); err != nil {
			return nil, err
		}
		if yEdges, err = histogram.AdaptiveEdges(ys, ylo, yhi, spec.YBins, spec.MinDensity); err != nil {
			return nil, err
		}
	} else {
		xEdges = histogram.UniformEdges(xlo, xhi, spec.XBins)
		yEdges = histogram.UniformEdges(ylo, yhi, spec.YBins)
	}
	return histogram.Compute2DCtx(ctx, spec.XVar, spec.YVar, xs, ys, xEdges, yEdges)
}

func indexLen(ix *Index) int {
	if ix == nil {
		return -1
	}
	return int(ix.N)
}

// rangeFor picks the binning range: an explicit spec range wins; a full
// (unconditional) column with an index uses the index's min/max; anything
// else scans the gathered values.
func rangeFor(vs []float64, lo, hi float64, has bool, ix *Index, full bool) (float64, float64) {
	if has {
		return lo, hi
	}
	if ix != nil && full {
		return ix.Min(), ix.Max()
	}
	return scan.MinMax(vs)
}
