package histogram

import (
	"context"
	"fmt"
)

// AdaptiveEdgesFromCounts merges the bins of a fine uniform histogram
// (given by its edges and per-bin counts) into `bins` contiguous groups of
// approximately equal total weight, returning the merged edges. This is
// the construction the paper attributes to FastBit: "FastBit computes
// adaptive histograms by first computing a higher-resolution uniformly
// binned histogram and then merging bins."
//
// minDensity, when positive, is the optional constraint from Section
// III-A3: a merged bin is closed early rather than diluted below the given
// record-per-unit-width density, which preserves detail in sparse regions.
func AdaptiveEdgesFromCounts(fineEdges []float64, fineCounts []uint64, bins int, minDensity float64) ([]float64, error) {
	if len(fineEdges) != len(fineCounts)+1 {
		return nil, fmt.Errorf("histogram: %d edges does not match %d counts", len(fineEdges), len(fineCounts))
	}
	if bins < 1 {
		return nil, fmt.Errorf("histogram: need at least 1 bin, got %d", bins)
	}
	if bins >= len(fineCounts) {
		return append([]float64(nil), fineEdges...), nil
	}
	var total uint64
	for _, c := range fineCounts {
		total += c
	}
	edges := make([]float64, 0, bins+1)
	edges = append(edges, fineEdges[0])
	var acc, placed uint64
	remainBins := bins
	for i, c := range fineCounts {
		acc += c
		// Target weight for the current merged bin: divide what is left
		// evenly among the remaining merged bins.
		remaining := total - placed
		target := remaining / uint64(remainBins)
		fineLeft := len(fineCounts) - i - 1
		closeHere := acc >= target && acc > 0
		if minDensity > 0 && acc > 0 {
			width := fineEdges[i+1] - edges[len(edges)-1]
			if width > 0 && float64(acc)/width < minDensity {
				// Still below the density floor; keep absorbing unless we
				// are forced to close to leave room for remaining bins.
				closeHere = false
			}
		}
		// Force-close when exactly enough fine bins remain to give each
		// remaining merged bin at least one fine bin.
		if fineLeft < remainBins-1 {
			closeHere = true
		}
		if closeHere && remainBins > 1 && i < len(fineCounts)-1 {
			edges = append(edges, fineEdges[i+1])
			placed += acc
			acc = 0
			remainBins--
		}
	}
	edges = append(edges, fineEdges[len(fineEdges)-1])
	return edges, nil
}

// AdaptiveEdges computes equal-weight edges for raw values over [lo, hi]
// by first building an AdaptiveRefine× finer uniform histogram and merging
// it. Values outside [lo, hi] are ignored.
func AdaptiveEdges(values []float64, lo, hi float64, bins int, minDensity float64) ([]float64, error) {
	fine := UniformEdges(lo, hi, bins*AdaptiveRefine)
	h, err := Compute1DCtx(context.Background(), "", values, fine)
	if err != nil {
		return nil, err
	}
	return AdaptiveEdgesFromCounts(fine, h.Counts, bins, minDensity)
}

// Rebin2D merges a fine 2D histogram onto coarser per-axis edges. Every
// coarse edge must coincide with a fine edge (as produced by
// AdaptiveEdgesFromCounts applied to the fine histogram's marginals);
// otherwise an error is returned.
func Rebin2D(fine *Hist2D, xEdges, yEdges []float64) (*Hist2D, error) {
	xMap, err := edgeMapping(fine.XEdges, xEdges)
	if err != nil {
		return nil, fmt.Errorf("histogram: x rebin: %w", err)
	}
	yMap, err := edgeMapping(fine.YEdges, yEdges)
	if err != nil {
		return nil, fmt.Errorf("histogram: y rebin: %w", err)
	}
	out := &Hist2D{
		XVar: fine.XVar, YVar: fine.YVar,
		XEdges: xEdges, YEdges: yEdges,
		Counts: make([]uint64, (len(xEdges)-1)*(len(yEdges)-1)),
	}
	nxOut := len(xEdges) - 1
	nxFine := fine.XBins()
	for iy := 0; iy < fine.YBins(); iy++ {
		oy := yMap[iy]
		for ix := 0; ix < nxFine; ix++ {
			c := fine.Counts[iy*nxFine+ix]
			if c != 0 {
				out.Counts[oy*nxOut+xMap[ix]] += c
			}
		}
	}
	return out, nil
}

// edgeMapping maps each fine bin index to the coarse bin containing it.
func edgeMapping(fine, coarse []float64) ([]int, error) {
	if len(coarse) < 2 {
		return nil, fmt.Errorf("need at least 2 coarse edges")
	}
	if fine[0] != coarse[0] || fine[len(fine)-1] != coarse[len(coarse)-1] {
		return nil, fmt.Errorf("coarse range [%g,%g] != fine range [%g,%g]",
			coarse[0], coarse[len(coarse)-1], fine[0], fine[len(fine)-1])
	}
	m := make([]int, len(fine)-1)
	ci := 0
	for fi := 0; fi < len(fine)-1; fi++ {
		for ci < len(coarse)-2 && fine[fi] >= coarse[ci+1] {
			ci++
		}
		if fine[fi] < coarse[ci] || fine[fi+1] > coarse[ci+1]+1e-12*abs(coarse[ci+1]) {
			if fine[fi+1] > coarse[ci+1] && !closeEnough(fine[fi+1], coarse[ci+1]) {
				return nil, fmt.Errorf("fine bin [%g,%g] straddles coarse edge %g",
					fine[fi], fine[fi+1], coarse[ci+1])
			}
		}
		m[fi] = ci
	}
	return m, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func closeEnough(a, b float64) bool {
	d := abs(a - b)
	s := abs(a) + abs(b)
	return d <= 1e-9*s || d == 0
}
