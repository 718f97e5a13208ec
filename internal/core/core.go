// Package core is the public face of the system: it ties the storage,
// index, query, histogram and rendering substrates into the workflow the
// paper demonstrates — open a time-varying particle dataset, build
// selections interactively with compound range queries, compute
// conditional histograms at any resolution, render focus+context and
// temporal parallel coordinates plots, and trace particle subsets across
// timesteps by identifier.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Explorer is an open dataset plus an execution backend choice.
type Explorer struct {
	src     *fastquery.Source
	backend fastquery.Backend
	idVar   string
}

// Open opens a dataset directory (data files plus optional indexes).
func Open(dir string) (*Explorer, error) {
	src, err := fastquery.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Explorer{src: src, backend: fastquery.FastBit, idVar: "id"}, nil
}

// SetBackend switches between the FastBit index backend and the
// sequential-scan baseline. All results are identical either way.
func (e *Explorer) SetBackend(b fastquery.Backend) { e.backend = b }

// Backend returns the active backend.
func (e *Explorer) Backend() fastquery.Backend { return e.backend }

// Steps returns the number of timesteps.
func (e *Explorer) Steps() int { return e.src.Steps() }

// Variables returns the dataset's variable names.
func (e *Explorer) Variables() []string { return e.src.Variables() }

// Source exposes the underlying fastquery source for advanced use.
func (e *Explorer) Source() *fastquery.Source { return e.src }

// Selection is a set of records in one timestep matching a query.
type Selection struct {
	ex        *Explorer
	step      int
	expr      query.Expr
	positions []uint64
	ids       []int64
}

// Select evaluates a query string against one timestep.
func (e *Explorer) Select(step int, q string) (*Selection, error) {
	expr, err := query.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.SelectExpr(step, expr)
}

// SelectExpr evaluates a parsed query against one timestep.
func (e *Explorer) SelectExpr(step int, expr query.Expr) (*Selection, error) {
	st, err := e.src.OpenStep(step)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ctx := context.Background()
	pos, err := st.SelectCtx(ctx, expr, e.backend)
	if err != nil {
		return nil, err
	}
	ids, err := st.IDsAtCtx(ctx, pos)
	if err != nil {
		return nil, err
	}
	return &Selection{ex: e, step: step, expr: expr, positions: pos, ids: ids}, nil
}

// Step returns the selection's timestep.
func (s *Selection) Step() int { return s.step }

// Query returns the selection's query expression.
func (s *Selection) Query() query.Expr { return s.expr }

// Count returns the number of selected records.
func (s *Selection) Count() int { return len(s.positions) }

// Positions returns the selected record positions (sorted).
func (s *Selection) Positions() []uint64 {
	return append([]uint64(nil), s.positions...)
}

// IDs returns the selected particle identifiers, in record order.
func (s *Selection) IDs() []int64 {
	return append([]int64(nil), s.ids...)
}

// Refine returns a new selection restricted by an additional condition —
// the paper's "beam refinement" interaction (Section IV-D).
func (s *Selection) Refine(extra string) (*Selection, error) {
	expr, err := query.Parse(extra)
	if err != nil {
		return nil, err
	}
	combined := &query.And{Terms: []query.Expr{s.expr, expr}}
	return s.ex.SelectExpr(s.step, combined)
}

// Values reads the named column for just the selected records.
func (s *Selection) Values(name string) ([]float64, error) {
	st, err := s.ex.src.OpenStep(s.step)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	col, err := st.ReadColumn(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(s.positions))
	for i, p := range s.positions {
		out[i] = col[p]
	}
	return out, nil
}

// AtStep re-evaluates the selection's identifier set at another timestep:
// the same particles, found by ID (the paper's time-tracing primitive).
func (s *Selection) AtStep(step int) (*Selection, error) {
	return s.ex.SelectByIDs(step, s.ids)
}

// SelectByIDs builds a selection from an explicit identifier set.
func (e *Explorer) SelectByIDs(step int, ids []int64) (*Selection, error) {
	st, err := e.src.OpenStep(step)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	pos, err := st.FindIDsCtx(context.Background(), ids, e.backend)
	if err != nil {
		return nil, err
	}
	vals, err := st.ReadColumn(e.idVar)
	if err != nil {
		return nil, err
	}
	found := make([]int64, len(pos))
	for i, p := range pos {
		found[i] = int64(vals[p])
	}
	// Represent the query as an IN expression for display purposes.
	fvals := make([]float64, len(ids))
	for i, id := range ids {
		fvals[i] = float64(id)
	}
	return &Selection{
		ex:        e,
		step:      step,
		expr:      query.NewIn(e.idVar, fvals),
		positions: pos,
		ids:       found,
	}, nil
}

// Histogram2D computes a 2D histogram of one timestep; cond may be empty
// for an unconditional histogram.
func (e *Explorer) Histogram2D(step int, cond string, spec histogram.Spec2D) (*histogram.Hist2D, error) {
	var expr query.Expr
	if cond != "" {
		var err error
		if expr, err = query.Parse(cond); err != nil {
			return nil, err
		}
	}
	st, err := e.src.OpenStep(step)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Histogram2DCtx(context.Background(), expr, spec, e.backend)
}

// Histogram1D computes a 1D histogram of one timestep.
func (e *Explorer) Histogram1D(step int, cond string, spec histogram.Spec1D) (*histogram.Hist1D, error) {
	var expr query.Expr
	if cond != "" {
		var err error
		if expr, err = query.Parse(cond); err != nil {
			return nil, err
		}
	}
	st, err := e.src.OpenStep(step)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Histogram1DCtx(context.Background(), expr, spec, e.backend)
}

// VarRange returns the value range of a variable at one timestep.
func (e *Explorer) VarRange(step int, name string) (lo, hi float64, err error) {
	st, err := e.src.OpenStep(step)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	return st.MinMax(name)
}

// GlobalRange returns the value range of a variable across the given
// steps (all steps when steps is nil).
func (e *Explorer) GlobalRange(name string, steps []int) (lo, hi float64, err error) {
	if steps == nil {
		for t := 0; t < e.Steps(); t++ {
			steps = append(steps, t)
		}
	}
	first := true
	for _, t := range steps {
		l, h, err := e.VarRange(t, name)
		if err != nil {
			return 0, 0, err
		}
		if first {
			lo, hi = l, h
			first = false
			continue
		}
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	if first {
		return 0, 0, fmt.Errorf("core: no steps")
	}
	return lo, hi, nil
}

// Track is one particle's trajectory over the tracked steps. Slices are
// parallel to Steps; a step is present only when the particle was in the
// simulation window then.
type Track struct {
	ID                  int64
	Steps               []int
	X, Y, Z, Px, Py, Pz []float64
}

// TrackOptions controls multi-step tracking.
type TrackOptions struct {
	// Workers bounds concurrent per-step work; 0 means serial.
	Workers int
	// Vars are the trajectory variables to gather; nil selects
	// x, y, z, px, py, pz.
	Vars []string
}

// TrackIDs locates the identifier set in steps [from, to] and assembles
// per-particle trajectories — the operation that took the paper's
// collaborators hours with scripts and runs in seconds with the index.
func (e *Explorer) TrackIDs(ids []int64, from, to int, opt TrackOptions) ([]*Track, error) {
	if from > to {
		from, to = to, from
	}
	if from < 0 || to >= e.Steps() {
		return nil, fmt.Errorf("core: step range [%d,%d] outside [0,%d)", from, to, e.Steps())
	}
	vars := opt.Vars
	if vars == nil {
		vars = []string{"x", "y", "z", "px", "py", "pz"}
	}
	have := map[string]bool{}
	for _, v := range vars {
		have[v] = true
	}
	if !have["x"] || !have["px"] {
		return nil, fmt.Errorf("core: TrackOptions.Vars must include x and px")
	}
	nSteps := to - from + 1
	type stepHits struct {
		ids  []int64
		vals map[string][]float64
	}
	hits := make([]stepHits, nSteps)
	tasks := make([]cluster.Task, nSteps)
	for i := 0; i < nSteps; i++ {
		i := i
		step := from + i
		tasks[i] = cluster.Task{Step: step, Run: func() (uint64, int, error) {
			st, err := e.src.OpenStep(step)
			if err != nil {
				return 0, 0, err
			}
			defer st.Close()
			pos, err := st.FindIDsCtx(context.Background(), ids, e.backend)
			if err != nil {
				return 0, 0, err
			}
			h := stepHits{vals: map[string][]float64{}}
			idCol, err := st.ReadColumn(e.idVar)
			if err != nil {
				return 0, 0, err
			}
			for _, p := range pos {
				h.ids = append(h.ids, int64(idCol[p]))
			}
			for _, v := range vars {
				col, err := st.ReadColumn(v)
				if err != nil {
					return 0, 0, err
				}
				vals := make([]float64, len(pos))
				for j, p := range pos {
					vals[j] = col[p]
				}
				h.vals[v] = vals
			}
			hits[i] = h
			return st.IOBytes(), 1, nil
		}}
	}
	var err error
	if opt.Workers > 0 {
		_, err = cluster.Run(tasks, opt.Workers, cluster.IOModel{})
	} else {
		_, err = cluster.RunSerial(tasks, cluster.IOModel{})
	}
	if err != nil {
		return nil, err
	}
	// Assemble per-id tracks.
	byID := map[int64]*Track{}
	for i := 0; i < nSteps; i++ {
		step := from + i
		h := hits[i]
		for j, id := range h.ids {
			tr, ok := byID[id]
			if !ok {
				tr = &Track{ID: id}
				byID[id] = tr
			}
			tr.Steps = append(tr.Steps, step)
			tr.X = append(tr.X, h.vals["x"][j])
			if v, ok := h.vals["y"]; ok {
				tr.Y = append(tr.Y, v[j])
			}
			if v, ok := h.vals["z"]; ok {
				tr.Z = append(tr.Z, v[j])
			}
			tr.Px = append(tr.Px, h.vals["px"][j])
			if v, ok := h.vals["py"]; ok {
				tr.Py = append(tr.Py, v[j])
			}
			if v, ok := h.vals["pz"]; ok {
				tr.Pz = append(tr.Pz, v[j])
			}
		}
	}
	out := make([]*Track, 0, len(byID))
	for _, tr := range byID {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Len returns the number of steps in the track.
func (t *Track) Len() int { return len(t.Steps) }
