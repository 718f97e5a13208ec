// Package fastquery is the query/histogram veneer over the columnar
// storage layer — the analogue of HDF5-FastQuery in the paper's stack
// (Section V): an implementation-neutral API for evaluating compound range
// queries, extracting particle subsets and computing conditional
// histograms over one timestep, with a choice of execution backend.
//
// Two backends implement every operation:
//
//	FastBit — bitmap-index accelerated (requires the sidecar index file)
//	Scan    — the paper's "Custom" sequential-scan baseline
//
// Both produce identical results; the performance comparison between them
// is the subject of the paper's evaluation section.
//
// # Concurrency
//
// Source and Step are safe for concurrent readers: any number of
// goroutines may call CountCtx, SelectCtx, Histogram1DCtx/2DCtx and
// MinMax on the same Step (or open Steps from the same Source)
// simultaneously. Data reads use positioned I/O (ReadAt), the lazy index
// guards its section caches with a mutex, and every evaluation allocates
// its own scratch state. Close must not race with in-flight queries on
// the same Step.
package fastquery

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/scan"
)

// Backend selects the execution strategy for queries and histograms.
type Backend int

// Available backends.
const (
	FastBit Backend = iota
	Scan
)

func (b Backend) String() string {
	switch b {
	case FastBit:
		return "fastbit"
	case Scan:
		return "custom"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Source is an open multi-timestep dataset. A Source can track a growing
// dataset: Reload re-reads the on-disk metadata and atomically swaps in
// the new step count, so a live ingestion pipeline appends timesteps to a
// dataset that is being served without a restart.
type Source struct {
	dir    string
	ds     atomic.Pointer[colstore.Dataset]
	closed atomic.Bool

	mu            sync.Mutex
	indexFailures map[int]string // timestep -> why its index was rejected
}

// IndexFailure records one timestep whose sidecar index could not be used.
type IndexFailure struct {
	Step   int    `json:"step"`
	Reason string `json:"reason"`
}

// IndexFailures reports every timestep whose index was rejected at open
// time (truncated, CRC mismatch, row-count mismatch) and therefore serves
// scan-backend queries only, sorted by timestep.
func (s *Source) IndexFailures() []IndexFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexFailure, 0, len(s.indexFailures))
	for t, reason := range s.indexFailures {
		out = append(out, IndexFailure{Step: t, Reason: reason})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// recordIndexFailure notes a rejected index for the stats endpoint.
func (s *Source) recordIndexFailure(t int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.indexFailures == nil {
		s.indexFailures = map[int]string{}
	}
	s.indexFailures[t] = err.Error()
}

// Open opens a dataset directory produced by the preprocessing pipeline.
func Open(dir string) (*Source, error) {
	ds, err := colstore.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	s := &Source{dir: dir}
	s.ds.Store(ds)
	return s, nil
}

// dataset returns the current metadata snapshot.
func (s *Source) dataset() *colstore.Dataset { return s.ds.Load() }

// Reload re-reads the dataset metadata from disk and swaps it in,
// returning the (possibly grown) step count. Steps opened before the
// reload stay valid — they own their files — and concurrent queries are
// unaffected: the swap is atomic and the old snapshot remains readable
// by requests that already hold it.
func (s *Source) Reload() (int, error) {
	if s.closed.Load() {
		return 0, Fatalf("fastquery: source closed")
	}
	ds, err := colstore.OpenDataset(s.dir)
	if err != nil {
		return 0, err
	}
	s.ds.Store(ds)
	return ds.Meta.Steps, nil
}

// Close marks the source closed; subsequent OpenStep calls fail. Steps
// opened earlier stay valid — each Step owns its files. Close is
// idempotent.
func (s *Source) Close() error {
	s.closed.Store(true)
	return nil
}

// Steps returns the number of timesteps.
func (s *Source) Steps() int { return s.dataset().Meta.Steps }

// Variables returns the dataset's declared variables.
func (s *Source) Variables() []string {
	return append([]string(nil), s.dataset().Meta.Variables...)
}

// Dataset exposes the underlying storage handle (the current snapshot;
// a concurrent Reload may supersede it).
func (s *Source) Dataset() *colstore.Dataset { return s.dataset() }

// OpenStep opens one timestep for querying. The sidecar index file is
// opened for on-demand section loading when present — only the directory
// is read up front, and each query loads just the column indexes it
// touches, like FastBit. Without an index only the Scan backend works.
//
// A damaged index — truncated file, CRC mismatch, or a row count that
// disagrees with the data file — does not fail the step: the problem is
// logged and recorded in IndexFailures, and the step opens with the index
// disabled so scan-backend queries keep working. FastBit-backend requests
// on such a step return an "index unavailable" error naming the cause.
func (s *Source) OpenStep(t int) (*Step, error) {
	if s.closed.Load() {
		return nil, Fatalf("fastquery: source closed")
	}
	ds := s.dataset()
	if t < 0 || t >= ds.Meta.Steps {
		return nil, Fatalf("fastquery: timestep %d out of range [0,%d)", t, ds.Meta.Steps)
	}
	f, err := ds.OpenStep(t)
	if err != nil {
		return nil, err
	}
	st := &Step{t: t, file: f}
	if ds.HasIndex(t) {
		ls, err := fastbit.OpenLazy(ds.IndexPath(t))
		if err == nil && ls.N() != f.Rows() {
			ls.Close()
			err = fmt.Errorf("index covers %d rows, data has %d", ls.N(), f.Rows())
			ls = nil
		}
		if err != nil {
			log.Printf("fastquery: step %d: index unusable, falling back to scan backend: %v", t, err)
			s.recordIndexFailure(t, err)
			st.indexErr = err
		} else {
			st.index = ls
		}
	}
	return st, nil
}

// Step is one open timestep. Its query and histogram methods are safe
// for concurrent use; see the package comment.
type Step struct {
	t     int
	file  *colstore.File
	index *fastbit.LazyStep
	// indexErr remembers why the sidecar index was rejected at open time;
	// nil when no index file exists or the index is healthy.
	indexErr error
}

// Close releases the underlying files.
func (st *Step) Close() error {
	if st.index != nil {
		st.index.Close() //nolint:errcheck // read-only handle
	}
	return st.file.Close()
}

// T returns the timestep number.
func (st *Step) T() int { return st.t }

// Rows returns the record count.
func (st *Step) Rows() uint64 { return st.file.Rows() }

// HasIndex reports whether the FastBit backend is available.
func (st *Step) HasIndex() bool { return st.index != nil }

// IndexError returns why the sidecar index was rejected at open time, or
// nil when no index exists or the index is healthy.
func (st *Step) IndexError() error { return st.indexErr }

// noIndexError explains a FastBit-backend request on a step without a
// usable index. The error is fatal — every worker sees the same file — so
// the cluster layer will not waste retries on it.
func (st *Step) noIndexError() error {
	if st.indexErr != nil {
		return Fatalf("fastquery: step %d: index unavailable (%v); use the Scan backend", st.t, st.indexErr)
	}
	return fmt.Errorf("fastquery: step %d has no index; use the Scan backend", st.t)
}

// IOBytes returns cumulative bytes read from the data file (not the
// index), for the performance model.
func (st *Step) IOBytes() uint64 { return st.file.BytesRead() }

// ReadColumn reads a full column as float64.
func (st *Step) ReadColumn(name string) ([]float64, error) {
	return st.file.ReadAsFloat64Cost(name, nil)
}

// ReadIDs reads the identifier column.
func (st *Step) ReadIDs() ([]int64, error) {
	return st.file.ReadInt64Cost(st.idVar(), nil)
}

// ValuesAtCtx gathers a column's values at the given sorted row
// positions, reading only the chunks that contain them and charging the
// read to ctx's per-query cost accumulator, when one is attached. This is
// the shard executor's access path: a fragment evaluates over its row
// range of the step, which is a small slice of the full column.
func (st *Step) ValuesAtCtx(ctx context.Context, name string, positions []uint64) ([]float64, error) {
	return st.file.ReadFloat64AtCost(name, positions, obs.CostFromContext(ctx))
}

func (st *Step) idVar() string {
	if st.index != nil && st.index.IDVar() != "" {
		return st.index.IDVar()
	}
	return "id"
}

// IDVar returns the name of the identifier column this step resolves ID
// queries against ("id" unless the index metadata names another).
func (st *Step) IDVar() string { return st.idVar() }

// IDsAtCtx gathers the identifier column's values at the given sorted row
// positions — the particle-tracking handoff: a selection's positions
// become the ID set that an `id in (...)` predicate follows across steps.
func (st *Step) IDsAtCtx(ctx context.Context, positions []uint64) ([]int64, error) {
	vals, err := st.file.ReadFloat64AtCost(st.idVar(), positions, obs.CostFromContext(ctx))
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i] = int64(v)
	}
	return out, nil
}

// reader adapts the colstore file to fastbit's RawReader, charging raw
// reads to the per-query cost accumulator when one is attached.
type reader struct {
	f    *colstore.File
	cost *obs.Cost
}

func (r reader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	return r.f.ReadFloat64AtCost(name, positions, r.cost)
}

func (r reader) Column(name string) ([]float64, error) {
	return r.f.ReadAsFloat64Cost(name, r.cost)
}

// evaluator returns a fastbit evaluator for this step, wired to charge
// index loads and raw reads to ctx's cost accumulator when one is set.
func (st *Step) evaluator(ctx context.Context) (*fastbit.Evaluator, error) {
	if st.index == nil {
		return nil, st.noIndexError()
	}
	c := obs.CostFromContext(ctx)
	return st.index.CostEvaluator(reader{f: st.file, cost: c}, c), nil
}

// loadScanColumns reads the columns needed to scan-evaluate e plus any
// extra variables, recording the read as a "read-columns" span on the
// active trace.
func (st *Step) loadScanColumns(ctx context.Context, e query.Expr, extra ...string) (scan.Columns, error) {
	_, sp := obs.StartSpan(ctx, "read-columns")
	defer sp.End()
	need := map[string]bool{}
	if e != nil {
		for _, v := range query.Vars(e) {
			need[v] = true
		}
	}
	for _, v := range extra {
		need[v] = true
	}
	names := make([]string, 0, len(need))
	for v := range need {
		names = append(names, v)
	}
	sort.Strings(names)
	sp.SetAttr("columns", strings.Join(names, ","))
	cost := obs.CostFromContext(ctx)
	cols := scan.Columns{}
	for _, v := range names {
		col, err := st.file.ReadAsFloat64Cost(v, cost)
		if err != nil {
			return nil, err
		}
		cols[v] = col
	}
	return cols, nil
}

// SelectCtx returns the sorted record positions matching e, with
// cooperative cancellation: both backends observe ctx at periodic
// checkpoints, so a canceled query stops within one checkpoint interval
// (scan.CheckpointRows rows). It is SelectRangeCtx over the whole step.
func (st *Step) SelectCtx(ctx context.Context, e query.Expr, b Backend) ([]uint64, error) {
	return st.SelectRangeCtx(ctx, e, b, 0, st.Rows())
}

// SelectRangeCtx returns the sorted positions in [lo, hi) of the records
// matching e. Both backends pay only for the range: the FastBit backend
// candidate-checks and decodes only the range's records, and the Scan
// backend evaluates only the range's slice of the loaded columns. hi is
// clamped to the step's row count.
func (st *Step) SelectRangeCtx(ctx context.Context, e query.Expr, b Backend, lo, hi uint64) ([]uint64, error) {
	hi = min(hi, st.Rows())
	lo = min(lo, hi)
	switch b {
	case FastBit:
		ev, err := st.evaluator(ctx)
		if err != nil {
			return nil, err
		}
		return ev.SelectCtx(ctx, e, lo, hi)
	case Scan:
		cols, err := st.loadScanColumns(ctx, e)
		if err != nil {
			return nil, err
		}
		for v, col := range cols {
			cols[v] = col[lo:hi]
		}
		pos, err := scan.SelectCtx(ctx, cols, e)
		if err != nil {
			return nil, err
		}
		for i := range pos {
			pos[i] += lo
		}
		return pos, nil
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// CountCtx returns the number of records matching e, with cooperative
// cancellation.
func (st *Step) CountCtx(ctx context.Context, e query.Expr, b Backend) (uint64, error) {
	pos, err := st.SelectCtx(ctx, e, b)
	if err != nil {
		return 0, err
	}
	return uint64(len(pos)), nil
}

// SelectIDsCtx returns the identifiers of records matching e, with
// cooperative cancellation.
func (st *Step) SelectIDsCtx(ctx context.Context, e query.Expr, b Backend) ([]int64, error) {
	pos, err := st.SelectCtx(ctx, e, b)
	if err != nil {
		return nil, err
	}
	return st.IDsAtCtx(ctx, pos)
}

// FindIDsCtx returns the sorted positions of records whose identifier is
// in the search set, with cooperative cancellation: the particle-tracking
// primitive (paper Section V-B).
func (st *Step) FindIDsCtx(ctx context.Context, ids []int64, b Backend) ([]uint64, error) {
	switch b {
	case FastBit:
		if st.index == nil {
			return nil, st.noIndexError()
		}
		pos, err := st.index.IDLookup(ids)
		if err != nil {
			return nil, fmt.Errorf("fastquery: step %d: %w", st.t, err)
		}
		return pos, nil
	case Scan:
		col, err := st.ReadIDs()
		if err != nil {
			return nil, err
		}
		return scan.FindIDsCtx(ctx, col, ids)
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// Histogram2DCtx computes a 2D histogram with cooperative cancellation;
// cond may be nil for unconditional.
func (st *Step) Histogram2DCtx(ctx context.Context, cond query.Expr, spec histogram.Spec2D, b Backend) (*histogram.Hist2D, error) {
	switch b {
	case FastBit:
		ev, err := st.evaluator(ctx)
		if err != nil {
			return nil, err
		}
		return ev.Histogram2DCtx(ctx, cond, spec)
	case Scan:
		cols, err := st.loadScanColumns(ctx, cond, spec.XVar, spec.YVar)
		if err != nil {
			return nil, err
		}
		return scanHistogram2D(ctx, cols, cond, spec)
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// Histogram1DCtx computes a 1D histogram with cooperative cancellation;
// cond may be nil.
func (st *Step) Histogram1DCtx(ctx context.Context, cond query.Expr, spec histogram.Spec1D, b Backend) (*histogram.Hist1D, error) {
	switch b {
	case FastBit:
		ev, err := st.evaluator(ctx)
		if err != nil {
			return nil, err
		}
		return ev.Histogram1DCtx(ctx, cond, spec)
	case Scan:
		cols, err := st.loadScanColumns(ctx, cond, spec.Var)
		if err != nil {
			return nil, err
		}
		return scanHistogram1D(ctx, cols, cond, spec)
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// Histogram1DIndexOnlyCtx computes an approximate conditional 1D
// histogram entirely in index space: the condition is evaluated with
// boundary bins admitted wholesale (no candidate checks, no raw reads)
// and the histogram is binned at the index's own resolution via bitmap
// AND-counts. It requires a usable index; the result's totals are an
// upper bound on the exact answer. This is the serve layer's brownout
// path under sustained overload.
func (st *Step) Histogram1DIndexOnlyCtx(ctx context.Context, cond query.Expr, name string) (*histogram.Hist1D, error) {
	ev, err := st.evaluator(ctx)
	if err != nil {
		return nil, err
	}
	ev.Approx = true
	return ev.Histogram1DFromBitmapsCtx(ctx, cond, name)
}

// Histogram2DIndexOnlyCtx is the 2D analogue of Histogram1DIndexOnlyCtx:
// an approximate conditional 2D histogram at the two indexes' native
// resolutions, computed from bitmaps alone.
func (st *Step) Histogram2DIndexOnlyCtx(ctx context.Context, cond query.Expr, xvar, yvar string) (*histogram.Hist2D, error) {
	ev, err := st.evaluator(ctx)
	if err != nil {
		return nil, err
	}
	ev.Approx = true
	return ev.Histogram2DFromBitmapsCtx(ctx, cond, xvar, yvar)
}

// Histogram2DParallelCtx computes a conditional 2D histogram with the
// SMP data-parallel algorithm (rows sharded across workers, partial
// histograms merged — scan.ParallelHistogram2DCtx), with cooperative
// cancellation: every shard worker observes ctx independently. It always
// runs on the scan path; the index-accelerated path parallelises across
// timesteps instead.
func (st *Step) Histogram2DParallelCtx(ctx context.Context, cond query.Expr, spec histogram.Spec2D, workers int) (*histogram.Hist2D, error) {
	cols, err := st.loadScanColumns(ctx, cond, spec.XVar, spec.YVar)
	if err != nil {
		return nil, err
	}
	xe, ye, err := resolveEdges(ctx, cols, cond, spec)
	if err != nil {
		return nil, err
	}
	return scan.ParallelHistogram2DCtx(ctx, cols, spec.XVar, spec.YVar, cond, xe, ye, workers)
}

// resolveEdges derives the bin edges a spec implies for the given columns
// and condition (shared by the serial and parallel scan paths).
func resolveEdges(ctx context.Context, cols scan.Columns, cond query.Expr, spec histogram.Spec2D) (xe, ye []float64, err error) {
	xs, ys := cols[spec.XVar], cols[spec.YVar]
	selX, selY := xs, ys
	if cond != nil {
		pos, err := scan.SelectCtx(ctx, cols, cond)
		if err != nil {
			return nil, nil, err
		}
		selX = gather(xs, pos)
		selY = gather(ys, pos)
	}
	xlo, xhi := spec.XLo, spec.XHi
	if !spec.HasXRange() {
		xlo, xhi = scan.MinMax(selX)
	}
	ylo, yhi := spec.YLo, spec.YHi
	if !spec.HasYRange() {
		ylo, yhi = scan.MinMax(selY)
	}
	if spec.Binning == histogram.Adaptive {
		if xe, err = histogram.AdaptiveEdges(selX, xlo, xhi, spec.XBins, spec.MinDensity); err != nil {
			return nil, nil, err
		}
		if ye, err = histogram.AdaptiveEdges(selY, ylo, yhi, spec.YBins, spec.MinDensity); err != nil {
			return nil, nil, err
		}
		return xe, ye, nil
	}
	return histogram.UniformEdges(xlo, xhi, spec.XBins), histogram.UniformEdges(ylo, yhi, spec.YBins), nil
}

// scanHistogram2D resolves spec ranges/edges against scan columns. Range
// derivation and adaptive edges see only the selected values, like the
// FastBit path, so both backends produce identical histograms.
func scanHistogram2D(ctx context.Context, cols scan.Columns, cond query.Expr, spec histogram.Spec2D) (*histogram.Hist2D, error) {
	xe, ye, err := resolveEdges(ctx, cols, cond, spec)
	if err != nil {
		return nil, err
	}
	return scan.ConditionalHistogram2DCtx(ctx, cols, spec.XVar, spec.YVar, cond, xe, ye)
}

func scanHistogram1D(ctx context.Context, cols scan.Columns, cond query.Expr, spec histogram.Spec1D) (*histogram.Hist1D, error) {
	vs := cols[spec.Var]
	sel := vs
	if cond != nil {
		pos, err := scan.SelectCtx(ctx, cols, cond)
		if err != nil {
			return nil, err
		}
		sel = gather(vs, pos)
	}
	lo, hi := spec.Lo, spec.Hi
	if !spec.HasRange() {
		lo, hi = scan.MinMax(sel)
	}
	var edges []float64
	var err error
	if spec.Binning == histogram.Adaptive {
		if edges, err = histogram.AdaptiveEdges(sel, lo, hi, spec.Bins, spec.MinDensity); err != nil {
			return nil, err
		}
	} else {
		edges = histogram.UniformEdges(lo, hi, spec.Bins)
	}
	return scan.Histogram1DCtx(ctx, cols, spec.Var, cond, edges)
}

func gather(vals []float64, pos []uint64) []float64 {
	out := make([]float64, len(pos))
	for i, p := range pos {
		out[i] = vals[p]
	}
	return out
}

// MinMax returns the value range of a column, preferring the index's
// metadata (free) over a column scan.
func (st *Step) MinMax(name string) (lo, hi float64, err error) {
	if st.index != nil && st.index.HasColumn(name) {
		ix, err := st.index.ColumnCost(name, nil)
		if err != nil {
			return math.NaN(), math.NaN(), err
		}
		return ix.Min(), ix.Max(), nil
	}
	col, err := st.ReadColumn(name)
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	lo, hi = scan.MinMax(col)
	return lo, hi, nil
}
