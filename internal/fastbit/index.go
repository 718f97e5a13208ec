package fastbit

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitmap"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Index is a binned bitmap index over one column: Bounds partitions
// [min, max] into bins, and Bitmaps[i] marks the records whose value falls
// in bin i (the last bin includes its upper bound). Every record belongs
// to exactly one bin.
type Index struct {
	Name      string
	N         uint64
	Bounds    []float64 // len = bins+1
	Bitmaps   []*bitmap.Vector
	Precision int // >0 when built with precision boundaries

	// BinMin and BinMax record the actual smallest and largest value in
	// each bin (like FastBit's per-bin granule metadata). They let a
	// boundary bin be resolved exactly without a candidate check whenever
	// the query cut does not pass between the bin's actual values — in
	// particular, strict comparisons on exact bin boundaries. Empty bins
	// hold +Inf/-Inf.
	BinMin, BinMax []float64
}

// RawValues fetches raw column values at sorted record positions; it is
// how the index performs candidate checks against the base data.
type RawValues func(positions []uint64) ([]float64, error)

// BuildIndex constructs the bitmap index for a column. Out-of-range
// values cannot occur (bounds are derived from the data), and NaN values
// are rejected.
func BuildIndex(name string, values []float64, opt IndexOptions) (*Index, error) {
	bounds, err := boundsFor(values, opt)
	if err != nil {
		return nil, fmt.Errorf("fastbit: index %q: %w", name, err)
	}
	loc, err := histogram.NewLocator(bounds)
	if err != nil {
		return nil, fmt.Errorf("fastbit: index %q: %w", name, err)
	}
	nb := loc.Bins()
	ix := &Index{
		Name:      name,
		N:         uint64(len(values)),
		Bounds:    bounds,
		Bitmaps:   make([]*bitmap.Vector, nb),
		Precision: opt.Precision,
	}
	ix.BinMin = make([]float64, nb)
	ix.BinMax = make([]float64, nb)
	for i := range ix.Bitmaps {
		ix.Bitmaps[i] = bitmap.New(ix.N)
		ix.BinMin[i] = math.Inf(1)
		ix.BinMax[i] = math.Inf(-1)
	}
	// Streaming build: cursor[b] is the number of bits already appended to
	// bitmap b; append the gap of zeros, then the one.
	cursor := make([]uint64, nb)
	for row, v := range values {
		b := loc.Bin(v)
		if b < 0 { // clamp rounding stragglers to the nearest edge bin
			if v < bounds[0] {
				b = 0
			} else {
				b = nb - 1
			}
		}
		ix.Bitmaps[b].AppendRun(false, uint64(row)-cursor[b])
		ix.Bitmaps[b].AppendBit(true)
		cursor[b] = uint64(row) + 1
		if v < ix.BinMin[b] {
			ix.BinMin[b] = v
		}
		if v > ix.BinMax[b] {
			ix.BinMax[b] = v
		}
	}
	for b := range ix.Bitmaps {
		ix.Bitmaps[b].AppendRun(false, ix.N-cursor[b])
	}
	return ix, nil
}

// Bins returns the number of bins.
func (ix *Index) Bins() int { return len(ix.Bitmaps) }

// Min returns the smallest indexed value.
func (ix *Index) Min() float64 { return ix.Bounds[0] }

// Max returns the largest indexed value.
func (ix *Index) Max() float64 { return ix.Bounds[len(ix.Bounds)-1] }

// BinCounts returns the number of records per bin, read off the bitmaps.
func (ix *Index) BinCounts() []uint64 {
	out := make([]uint64, len(ix.Bitmaps))
	for i, bm := range ix.Bitmaps {
		out[i] = bm.Count()
	}
	return out
}

// SizeBytes returns the approximate compressed size of the index.
func (ix *Index) SizeBytes() int {
	s := 8 * len(ix.Bounds)
	for _, bm := range ix.Bitmaps {
		s += bm.SizeBytes()
	}
	return s
}

// EvalStats reports how a range evaluation was resolved. CandidateChecks
// counts records whose raw values had to be read; zero means the query
// was answered from the index alone (the case precision binning
// guarantees for low-precision constants).
type EvalStats struct {
	FullBins        int
	BoundaryBins    int
	CandidateChecks uint64
	// ApproxRows counts records admitted wholesale from boundary bins by
	// the approximate (index-only) evaluation path instead of being
	// candidate-checked; nonzero means the result is a superset.
	ApproxRows uint64
}

// EvaluateCtx returns the bitmap of the records in [lo, hi) whose value
// lies in iv. raw is consulted only for records in boundary bins; it may
// be nil when the interval is aligned with bin boundaries. Cancellation is
// cooperative: the candidate check loop observes ctx every
// checkpointRows records. Only boundary-bin records inside the range are
// gathered and checked (st.CandidateChecks counts just those), so the
// returned bitmap is exact inside [lo, hi); outside it, boundary-bin
// records are left unset. The whole column is the range [0, N).
func (ix *Index) EvaluateCtx(ctx context.Context, iv query.Interval, raw RawValues, lo, hi uint64) (*bitmap.Vector, EvalStats, error) {
	var st EvalStats
	nb := ix.Bins()
	min, max := ix.Min(), ix.Max()

	// Entirely outside the data range.
	if iv.Hi < min || (iv.Hi == min && iv.HiOpen) || iv.Lo > max || (iv.Lo == max && iv.LoOpen) {
		v := bitmap.New(ix.N)
		v.AppendRun(false, ix.N)
		return v, st, nil
	}
	// Entire data range covered.
	if iv.Contains(min) && iv.Contains(max) {
		v := bitmap.New(ix.N)
		v.AppendRun(true, ix.N)
		st.FullBins = nb
		return v, st, nil
	}

	var full []*bitmap.Vector
	var boundary []int
	for b := 0; b < nb; b++ {
		blo, bhi := ix.Bounds[b], ix.Bounds[b+1]
		last := b == nb-1
		if !binOverlaps(iv, blo, bhi, last) {
			continue
		}
		switch {
		case binInside(iv, blo, bhi, last):
			full = append(full, ix.Bitmaps[b])
		case ix.binResolvedByGranule(iv, b):
			// The bin's actual value range decides the bin without
			// touching raw data.
			if iv.Contains(ix.BinMin[b]) {
				full = append(full, ix.Bitmaps[b])
			}
			// Otherwise no actual value matches: skip the bin entirely.
		default:
			boundary = append(boundary, b)
		}
	}
	st.FullBins = len(full)
	st.BoundaryBins = len(boundary)

	result := bitmap.OrAll(full)
	if result.Len() == 0 {
		result = bitmap.New(ix.N)
		result.AppendRun(false, ix.N)
	}
	if len(boundary) == 0 {
		return result, st, nil
	}
	if raw == nil {
		return nil, st, fmt.Errorf("fastbit: %q: interval %v needs a candidate check but no raw reader was provided", ix.Name, iv)
	}
	cand := make([]*bitmap.Vector, len(boundary))
	for i, b := range boundary {
		cand[i] = ix.Bitmaps[b]
	}
	positions := bitmap.OrAll(cand).PositionsRange(lo, hi)
	st.CandidateChecks = uint64(len(positions))
	values, err := raw(positions)
	if err != nil {
		return nil, st, fmt.Errorf("fastbit: %q: candidate check: %w", ix.Name, err)
	}
	hits := positions[:0]
	for i, p := range positions {
		if i&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, st, err
			}
		}
		if iv.Contains(values[i]) {
			hits = append(hits, p)
		}
	}
	exact, err := bitmap.FromPositions(ix.N, hits)
	if err != nil {
		return nil, st, fmt.Errorf("fastbit: %q: %w", ix.Name, err)
	}
	return result.Or(exact), st, nil
}

// EvaluateApproxCtx is EvaluateCtx without candidate checks: boundary
// bins are included wholesale, so the returned bitmap is a superset of
// the exact answer and never touches the raw data. This is the server's
// brownout path — under overload a slightly-too-inclusive histogram now
// beats an exact one after the user has given up. st.ApproxRows reports
// how many records were admitted without being checked (0 means the
// result happens to be exact).
func (ix *Index) EvaluateApproxCtx(ctx context.Context, iv query.Interval) (*bitmap.Vector, EvalStats, error) {
	var st EvalStats
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	nb := ix.Bins()
	min, max := ix.Min(), ix.Max()

	// The two trivial cases are exact even here.
	if iv.Hi < min || (iv.Hi == min && iv.HiOpen) || iv.Lo > max || (iv.Lo == max && iv.LoOpen) {
		v := bitmap.New(ix.N)
		v.AppendRun(false, ix.N)
		return v, st, nil
	}
	if iv.Contains(min) && iv.Contains(max) {
		v := bitmap.New(ix.N)
		v.AppendRun(true, ix.N)
		st.FullBins = nb
		return v, st, nil
	}

	var full []*bitmap.Vector
	for b := 0; b < nb; b++ {
		blo, bhi := ix.Bounds[b], ix.Bounds[b+1]
		last := b == nb-1
		if !binOverlaps(iv, blo, bhi, last) {
			continue
		}
		switch {
		case binInside(iv, blo, bhi, last):
			full = append(full, ix.Bitmaps[b])
			st.FullBins++
		case ix.binResolvedByGranule(iv, b):
			if iv.Contains(ix.BinMin[b]) {
				full = append(full, ix.Bitmaps[b])
				st.FullBins++
			}
		default:
			// Boundary bin: take it wholesale instead of checking raw values.
			full = append(full, ix.Bitmaps[b])
			st.BoundaryBins++
			st.ApproxRows += ix.Bitmaps[b].Count()
		}
	}
	result := bitmap.OrAll(full)
	if result.Len() == 0 {
		result = bitmap.New(ix.N)
		result.AppendRun(false, ix.N)
	}
	return result, st, nil
}

// binResolvedByGranule reports whether bin b's actual min/max values
// decide the bin's membership wholesale: either every actual value lies in
// iv or none does. Empty bins (min=+Inf) are trivially resolved.
func (ix *Index) binResolvedByGranule(iv query.Interval, b int) bool {
	if ix.BinMin == nil || ix.BinMax == nil {
		return false
	}
	lo, hi := ix.BinMin[b], ix.BinMax[b]
	if lo > hi { // empty bin
		return true
	}
	allIn := iv.Contains(lo) && iv.Contains(hi)
	noneIn := hi < iv.Lo || (hi == iv.Lo && iv.LoOpen) ||
		lo > iv.Hi || (lo == iv.Hi && iv.HiOpen)
	return allIn || noneIn
}

// binOverlaps reports whether bin [blo, bhi) (closed at bhi for the last
// bin) intersects iv.
func binOverlaps(iv query.Interval, blo, bhi float64, last bool) bool {
	// Bin is below the interval.
	if bhi < iv.Lo {
		return false
	}
	if bhi == iv.Lo && !last {
		// Bin excludes bhi, interval starts at or above it.
		return false
	}
	if bhi == iv.Lo && last {
		return iv.Contains(bhi)
	}
	// Bin is above the interval.
	if blo > iv.Hi || (blo == iv.Hi && (iv.HiOpen || blo == bhi)) {
		return false
	}
	if blo == iv.Hi {
		return iv.Contains(blo)
	}
	return true
}

// binInside reports whether every value that can fall in the bin is
// contained in iv.
func binInside(iv query.Interval, blo, bhi float64, last bool) bool {
	if !iv.Contains(blo) {
		return false
	}
	if last {
		return iv.Contains(bhi)
	}
	// Bin holds values in [blo, bhi); it is inside when bhi <= iv.Hi, or
	// bhi == iv.Hi with any openness (the bin never produces bhi itself).
	return bhi < iv.Hi || bhi == iv.Hi
}

// AlignedEdges reports whether every edge is (within floating point
// tolerance) one of the index's bin boundaries, meaning histograms over
// these edges can be computed from bitmap counts alone.
func (ix *Index) AlignedEdges(edges []float64) bool {
	bi := 0
	for _, e := range edges {
		for bi < len(ix.Bounds) && ix.Bounds[bi] < e && !eq(ix.Bounds[bi], e) {
			bi++
		}
		if bi >= len(ix.Bounds) || !eq(ix.Bounds[bi], e) {
			return false
		}
	}
	return true
}

func eq(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-12*(math.Abs(a)+math.Abs(b))
}
