// Package shard implements the executor half of the planner/executor
// split: evaluating plan fragments over a shard's row ranges of the shared
// dataset, serving them over the cluster RPC layer with a per-shard result
// cache, and a scatter client that fans fragments out to shard workers
// with replica failover and hedging.
//
// Every shard worker opens the same dataset directory (the paper's
// parallel-filesystem deployment), so the shard map assigns work rather
// than data: a fragment names a row range, and any worker could evaluate
// any fragment. Whole-step fragments are routed to a stable home shard so
// its cache absorbs repeats.
package shard

import (
	"context"
	"fmt"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/scan"
)

// Eval evaluates one fragment against one step. It is the executor's
// kernel and is deliberately a free function over *fastquery.Step so the
// serving layer can run the identical code in-process for the one-shard
// case.
func Eval(ctx context.Context, st *fastquery.Step, f plan.Fragment) (*plan.FragmentResult, error) {
	expr, err := parseQuery(f.Query)
	if err != nil {
		return nil, err
	}
	switch f.Op {
	case plan.FragWhole1D:
		h, err := st.Histogram1DCtx(ctx, expr, f.Spec1, f.Backend)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist1: h}, nil

	case plan.FragWhole2D:
		h, err := st.Histogram2DCtx(ctx, expr, f.Spec2, f.Backend)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist2: h}, nil

	case plan.FragCount:
		if expr == nil {
			return &plan.FragmentResult{Count: rangeSize(st, f.Rows)}, nil
		}
		pos, err := selectRange(ctx, st, expr, f.Backend, f.Rows)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Count: uint64(len(pos))}, nil

	case plan.FragSelect:
		pos, err := selectRange(ctx, st, expr, f.Backend, f.Rows)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Sel: pos, Count: uint64(len(pos))}, nil

	case plan.FragMinMax:
		pos, err := selectRange(ctx, st, expr, f.Backend, f.Rows)
		if err != nil {
			return nil, err
		}
		res := &plan.FragmentResult{}
		for _, v := range f.Vars {
			vs, err := st.ValuesAtCtx(ctx, v, pos)
			if err != nil {
				return nil, err
			}
			lo, hi := scan.MinMax(vs)
			res.MinMax = append(res.MinMax, plan.VarRange{Var: v, Lo: lo, Hi: hi, N: uint64(len(vs))})
		}
		return res, nil

	case plan.FragHist1D:
		pos, err := selectRange(ctx, st, expr, f.Backend, f.Rows)
		if err != nil {
			return nil, err
		}
		vs, err := st.ValuesAtCtx(ctx, f.Spec1.Var, pos)
		if err != nil {
			return nil, err
		}
		// Edges are recomputed from the resolved spec rather than
		// shipped: UniformEdges is deterministic, so every shard (and
		// the merging frontend) derives bit-identical boundaries.
		edges := histogram.UniformEdges(f.Spec1.Lo, f.Spec1.Hi, f.Spec1.Bins)
		h, err := histogram.Compute1DCtx(ctx, f.Spec1.Var, vs, edges)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist1: h}, nil

	case plan.FragHist2D:
		pos, err := selectRange(ctx, st, expr, f.Backend, f.Rows)
		if err != nil {
			return nil, err
		}
		xs, err := st.ValuesAtCtx(ctx, f.Spec2.XVar, pos)
		if err != nil {
			return nil, err
		}
		ys, err := st.ValuesAtCtx(ctx, f.Spec2.YVar, pos)
		if err != nil {
			return nil, err
		}
		xe := histogram.UniformEdges(f.Spec2.XLo, f.Spec2.XHi, f.Spec2.XBins)
		ye := histogram.UniformEdges(f.Spec2.YLo, f.Spec2.YHi, f.Spec2.YBins)
		h, err := histogram.Compute2DCtx(ctx, f.Spec2.XVar, f.Spec2.YVar, xs, ys, xe, ye)
		if err != nil {
			return nil, err
		}
		return &plan.FragmentResult{Hist2: h}, nil

	default:
		return nil, fastquery.Fatalf("shard: unknown fragment op %v", f.Op)
	}
}

// parseQuery parses a fragment's canonical query text. A malformed query
// is fatal: retrying or failing over will not fix it.
func parseQuery(src string) (query.Expr, error) {
	if src == "" {
		return nil, nil
	}
	e, err := query.Parse(src)
	if err != nil {
		return nil, fastquery.Fatal(fmt.Errorf("shard: parse query: %w", err))
	}
	return query.Canonical(e), nil
}

// rangeSize returns the number of rows a range covers on this step.
func rangeSize(st *fastquery.Step, rr plan.RowRange) uint64 {
	if rr.Whole() {
		return st.Rows()
	}
	if rr.Hi <= rr.Lo {
		return 0
	}
	return rr.Hi - rr.Lo
}

// selectRange returns the sorted matching row positions inside the
// fragment's row range. With no condition it is every position in the
// range. Evaluation itself is range-limited, so a shard pays for its own
// rows only.
func selectRange(ctx context.Context, st *fastquery.Step, expr query.Expr, b fastquery.Backend, rr plan.RowRange) ([]uint64, error) {
	lo, hi := rr.Lo, rr.Hi
	if rr.Whole() || hi > st.Rows() {
		hi = st.Rows()
	}
	if expr != nil {
		return st.SelectRangeCtx(ctx, expr, b, lo, hi)
	}
	if hi <= lo {
		return nil, nil
	}
	pos := make([]uint64, hi-lo)
	for i := range pos {
		pos[i] = lo + uint64(i)
	}
	return pos, nil
}
