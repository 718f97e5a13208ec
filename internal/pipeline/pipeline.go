// Package pipeline implements a small contract-based, demand-driven data
// processing pipeline in the style of VisIt's contract system (paper
// Section II-D and Childs et al. 2005). Before execution, a Contract
// travels upstream from the sinks to the source; each stage adds what it
// needs (variables, histogram specifications) and may restrict the scope
// of upstream work by contributing Boolean range queries out-of-band. The
// source then performs exactly the I/O and index work the contract calls
// for — this is what lets histogram computation live at the I/O stage and
// keeps rendering cost a function of histogram resolution rather than
// dataset size (Section III-A1).
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Contract accumulates the upstream demands of all stages.
type Contract struct {
	// Variables the source must be able to read.
	Variables map[string]bool
	// Restriction is the conjunction of all stages' range queries; nil
	// means no restriction. It limits which records contribute to
	// histograms and subset extraction.
	Restriction query.Expr
	// Hist2D lists the 2D histograms the source computes at I/O time.
	Hist2D []histogram.Spec2D
	// NeedPositions requests the matching record positions.
	NeedPositions bool
	// NeedIDs requests the matching record identifiers.
	NeedIDs bool
	// SubsetColumns requests these columns' values at matching positions.
	SubsetColumns map[string]bool
}

// NewContract returns an empty contract.
func NewContract() *Contract {
	return &Contract{Variables: map[string]bool{}, SubsetColumns: map[string]bool{}}
}

// Restrict ANDs a range query into the contract's restriction.
func (c *Contract) Restrict(e query.Expr) {
	if e == nil {
		return
	}
	for _, v := range query.Vars(e) {
		c.Variables[v] = true
	}
	if c.Restriction == nil {
		c.Restriction = e
		return
	}
	c.Restriction = &query.And{Terms: []query.Expr{c.Restriction, e}}
}

// RangeSet exposes the restriction as per-variable intervals when it is a
// plain conjunction of comparisons — the out-of-band form VisIt passes
// between filters.
func (c *Contract) RangeSet() (map[string]query.Interval, bool) {
	if c.Restriction == nil {
		return map[string]query.Interval{}, true
	}
	return query.RangeSet(c.Restriction)
}

// Payload is the data flowing downstream after the source executes.
type Payload struct {
	Step      int
	Rows      uint64
	Hists     []*histogram.Hist2D // parallel to Contract.Hist2D
	Positions []uint64
	IDs       []int64
	Subset    map[string][]float64 // SubsetColumns values at Positions
}

// Stage is one pipeline element between the source and the end of the
// pipeline. Negotiate runs upstream (last stage first); Execute runs
// downstream (first stage first).
type Stage interface {
	Name() string
	Negotiate(c *Contract) error
	Execute(p *Payload) error
}

// Pipeline executes stages over one fastquery step per Run call.
type Pipeline struct {
	src     *fastquery.Source
	backend fastquery.Backend
	stages  []Stage
}

// New creates a pipeline over a dataset source.
func New(src *fastquery.Source, backend fastquery.Backend, stages ...Stage) (*Pipeline, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil source")
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	return &Pipeline{src: src, backend: backend, stages: stages}, nil
}

// Run negotiates the contract and executes the pipeline for one timestep,
// returning the final payload.
func (pl *Pipeline) Run(step int) (*Payload, error) {
	contract := NewContract()
	// Contracts travel upstream: the most-downstream stage negotiates
	// first.
	for i := len(pl.stages) - 1; i >= 0; i-- {
		if err := pl.stages[i].Negotiate(contract); err != nil {
			return nil, fmt.Errorf("pipeline: negotiate %s: %w", pl.stages[i].Name(), err)
		}
	}
	payload, err := pl.executeSource(step, contract)
	if err != nil {
		return nil, fmt.Errorf("pipeline: source: %w", err)
	}
	for _, st := range pl.stages {
		if err := st.Execute(payload); err != nil {
			return nil, fmt.Errorf("pipeline: execute %s: %w", st.Name(), err)
		}
	}
	return payload, nil
}

// executeSource performs the I/O-stage work the contract demands.
func (pl *Pipeline) executeSource(step int, c *Contract) (*Payload, error) {
	st, err := pl.src.OpenStep(step)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	p := &Payload{Step: step, Rows: st.Rows()}

	ctx := context.Background()
	for _, spec := range c.Hist2D {
		h, err := st.Histogram2DCtx(ctx, c.Restriction, spec, pl.backend)
		if err != nil {
			return nil, err
		}
		p.Hists = append(p.Hists, h)
	}
	needPos := c.NeedPositions || c.NeedIDs || len(c.SubsetColumns) > 0
	if needPos {
		if c.Restriction == nil {
			return nil, fmt.Errorf("subset extraction requires a restriction query")
		}
		pos, err := st.SelectCtx(ctx, c.Restriction, pl.backend)
		if err != nil {
			return nil, err
		}
		p.Positions = pos
	}
	if c.NeedIDs {
		ids, err := st.IDsAtCtx(ctx, p.Positions)
		if err != nil {
			return nil, err
		}
		p.IDs = ids
	}
	if len(c.SubsetColumns) > 0 {
		p.Subset = map[string][]float64{}
		for name := range c.SubsetColumns {
			vals, err := columnAt(st, name, p.Positions)
			if err != nil {
				return nil, err
			}
			p.Subset[name] = vals
		}
	}
	return p, nil
}

func columnAt(st *fastquery.Step, name string, pos []uint64) ([]float64, error) {
	col, err := st.ReadColumn(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pos))
	for i, p := range pos {
		if p >= uint64(len(col)) {
			return nil, fmt.Errorf("pipeline: position %d out of range", p)
		}
		out[i] = col[p]
	}
	return out, nil
}
