package scan

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/histogram"
	"repro/internal/query"
)

// ParallelHistogram2DCtx computes a conditional 2D histogram by sharding
// the rows across workers and merging per-shard partial histograms — the
// SMP conditional-histogram algorithm family of Stockinger et al. that the
// paper cites as its predecessor for accelerating data mining (Section
// II-C). Edges must be fixed up front so the partials merge exactly.
// workers <= 0 selects GOMAXPROCS. Cancellation is cooperative: every
// shard worker observes ctx at its own checkpoint interval, so a canceled
// histogram releases all cores promptly.
func ParallelHistogram2DCtx(ctx context.Context, c Columns, xvar, yvar string, cond query.Expr, xEdges, yEdges []float64, workers int) (*histogram.Hist2D, error) {
	xs, ok := c[xvar]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", xvar)
	}
	if _, ok := c[yvar]; !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", yvar)
	}
	if cond != nil {
		if err := ValidateVars(c, cond); err != nil {
			return nil, err
		}
	}
	if _, err := c.rows(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(xs)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return ConditionalHistogram2DCtx(ctx, c, xvar, yvar, cond, xEdges, yEdges)
	}

	partials := make([]*histogram.Hist2D, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shard := Columns{}
			for name, col := range c {
				shard[name] = col[lo:hi]
			}
			partials[w], errs[w] = ConditionalHistogram2DCtx(ctx, shard, xvar, yvar, cond, xEdges, yEdges)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := partials[0]
	for _, p := range partials[1:] {
		if err := out.Merge(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
