// Package scan implements the sequential-scan baseline the paper labels
// "Custom" in its performance charts: histogram computation and particle
// selection without any index structure. The paper built this baseline
// (rather than timing the scientists' IDL scripts) for a fair comparison;
// we reproduce it the same way.
//
// Per the paper's description, the custom ID search compares each record's
// identifier against a sorted search set with binary search, giving
// O(N log S) for N records and a search set of size S, while the custom
// histogram code organises bin counts as a slice-of-slices ("the
// difference in organization of the histogram bin counts array"), versus
// FastBit's flat array.
package scan

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
)

// CheckpointRows is the cancellation checkpoint interval: scan loops test
// the context once every CheckpointRows rows, so a canceled query stops
// within one interval while the per-row overhead stays unmeasurable.
const CheckpointRows = 64 * 1024

// checkpoint returns ctx.Err() at every CheckpointRows-th row; other rows
// cost a single mask-and-compare.
func checkpoint(ctx context.Context, row int) error {
	if row&(CheckpointRows-1) == 0 {
		return ctx.Err()
	}
	return nil
}

// Columns provides named in-memory columns for one timestep.
type Columns map[string][]float64

// rows returns the common row count, or an error when columns disagree.
func (c Columns) rows() (int, error) {
	n := -1
	for name, col := range c {
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return 0, fmt.Errorf("scan: column %q has %d rows, expected %d", name, len(col), n)
		}
	}
	if n == -1 {
		n = 0
	}
	return n, nil
}

// getter returns a row-value accessor for the query evaluator. Missing
// variables read as NaN-free zero, which fails every strict comparison —
// callers should validate variables beforehand via ValidateVars.
func (c Columns) getter(row int) func(string) float64 {
	return func(name string) float64 {
		col, ok := c[name]
		if !ok {
			return 0
		}
		return col[row]
	}
}

// ValidateVars checks that every variable referenced by e is present.
func ValidateVars(c Columns, e query.Expr) error {
	for _, v := range query.Vars(e) {
		if _, ok := c[v]; !ok {
			return fmt.Errorf("scan: query references unknown variable %q", v)
		}
	}
	return nil
}

// SelectCtx returns the sorted row positions matching the expression, by
// evaluating it against every record. The scan aborts with ctx.Err()
// within CheckpointRows rows of ctx being canceled.
func SelectCtx(ctx context.Context, c Columns, e query.Expr) ([]uint64, error) {
	if err := ValidateVars(c, e); err != nil {
		return nil, err
	}
	n, err := c.rows()
	if err != nil {
		return nil, err
	}
	ctx, sp := startScanSpan(ctx, "scan-select", n)
	start := time.Now()
	var out []uint64
	for row := 0; row < n; row++ {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		if e.Eval(c.getter(row)) {
			out = append(out, uint64(row))
		}
	}
	observeScan(ctx, n, time.Since(start).Seconds())
	sp.End()
	return out, nil
}

// Count returns the number of records matching the expression. It is the
// one scan entry point without a context: with no trace or cost to feed
// and nothing to cancel, the pass runs to completion.
func Count(c Columns, e query.Expr) (uint64, error) {
	if err := ValidateVars(c, e); err != nil {
		return 0, err
	}
	n, err := c.rows()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var cnt uint64
	for row := 0; row < n; row++ {
		if e.Eval(c.getter(row)) {
			cnt++
		}
	}
	observeScan(context.Background(), n, time.Since(start).Seconds())
	return cnt, nil
}

// ConditionalHistogram2DCtx computes a 2D histogram restricted to records
// matching cond (pass nil for unconditional), with cooperative
// cancellation at CheckpointRows intervals. Every record is visited. Bin
// counts use a slice-of-slices layout, mirroring the paper's description
// of the custom code's memory organisation.
func ConditionalHistogram2DCtx(ctx context.Context, c Columns, xvar, yvar string, cond query.Expr, xEdges, yEdges []float64) (*histogram.Hist2D, error) {
	xs, ok := c[xvar]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", xvar)
	}
	ys, ok := c[yvar]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", yvar)
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("scan: column length mismatch %d vs %d", len(xs), len(ys))
	}
	if cond != nil {
		if err := ValidateVars(c, cond); err != nil {
			return nil, err
		}
	}
	lx, err := histogram.NewLocator(xEdges)
	if err != nil {
		return nil, fmt.Errorf("scan: x edges: %w", err)
	}
	ly, err := histogram.NewLocator(yEdges)
	if err != nil {
		return nil, fmt.Errorf("scan: y edges: %w", err)
	}
	ctx, sp := startScanSpan(ctx, "scan-hist2d", len(xs))
	start := time.Now()
	// Slice-of-slices bin counts: the custom code's layout.
	counts := make([][]uint64, ly.Bins())
	for i := range counts {
		counts[i] = make([]uint64, lx.Bins())
	}
	for row := range xs {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		if cond != nil && !cond.Eval(c.getter(row)) {
			continue
		}
		ix := lx.Bin(xs[row])
		if ix < 0 {
			continue
		}
		iy := ly.Bin(ys[row])
		if iy < 0 {
			continue
		}
		counts[iy][ix]++
	}
	observeScan(ctx, len(xs), time.Since(start).Seconds())
	sp.End()
	h := &histogram.Hist2D{
		XVar: xvar, YVar: yvar,
		XEdges: xEdges, YEdges: yEdges,
		Counts: make([]uint64, lx.Bins()*ly.Bins()),
	}
	for iy, row := range counts {
		copy(h.Counts[iy*lx.Bins():(iy+1)*lx.Bins()], row)
	}
	return h, nil
}

// Histogram1DCtx computes a conditional 1D histogram by full scan, with
// cooperative cancellation; cond may be nil.
func Histogram1DCtx(ctx context.Context, c Columns, v string, cond query.Expr, edges []float64) (*histogram.Hist1D, error) {
	vs, ok := c[v]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", v)
	}
	if cond != nil {
		if err := ValidateVars(c, cond); err != nil {
			return nil, err
		}
	}
	loc, err := histogram.NewLocator(edges)
	if err != nil {
		return nil, err
	}
	ctx, sp := startScanSpan(ctx, "scan-hist1d", len(vs))
	start := time.Now()
	h := &histogram.Hist1D{Var: v, Edges: edges, Counts: make([]uint64, loc.Bins())}
	for row := range vs {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		if cond != nil && !cond.Eval(c.getter(row)) {
			continue
		}
		if i := loc.Bin(vs[row]); i >= 0 {
			h.Counts[i]++
		}
	}
	observeScan(ctx, len(vs), time.Since(start).Seconds())
	sp.End()
	return h, nil
}

// MinMax returns the minimum and maximum of a column by full scan.
func MinMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// FindIDsCtx returns the sorted row positions whose identifier appears in
// searchSet, using the paper's custom algorithm: one pass over all N
// records, binary-searching each identifier in the sorted set — O(N log S).
// Cancellation is cooperative at CheckpointRows intervals.
func FindIDsCtx(ctx context.Context, ids []int64, searchSet []int64) ([]uint64, error) {
	set := append([]int64(nil), searchSet...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	ctx, sp := startScanSpan(ctx, "scan-find-ids", len(ids))
	start := time.Now()
	var out []uint64
	for row, id := range ids {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		i := sort.Search(len(set), func(k int) bool { return set[k] >= id })
		if i < len(set) && set[i] == id {
			out = append(out, uint64(row))
		}
	}
	observeScan(ctx, len(ids), time.Since(start).Seconds())
	sp.End()
	return out, nil
}

// startScanSpan opens a span for one scan pass, annotated with the row
// count. The returned context carries the span for nested checkpoints.
func startScanSpan(ctx context.Context, name string, rows int) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, name)
	sp.SetAttr("rows", strconv.Itoa(rows))
	return ctx, sp
}
