package scan

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// trippingCtx reports itself canceled after `after` Err() probes. It makes
// mid-loop checkpointing deterministic: with data spanning several
// CheckpointRows intervals, the loop must notice the cancellation at the
// first checkpoint after the trip, not run to completion.
type trippingCtx struct {
	context.Context
	probes atomic.Int64
	after  int64
}

func (c *trippingCtx) Err() error {
	if c.probes.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// bigColumns spans four checkpoint intervals so cancellation mid-scan is
// observable.
func bigColumns() Columns {
	n := 4 * CheckpointRows
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	return Columns{"x": xs}
}

func TestScanChecksContextMidLoop(t *testing.T) {
	c := bigColumns()
	e := query.MustParse("x > 50")

	// Sanity: an untripped context scans to completion.
	want, err := Count(c, e)
	if err != nil || want == 0 {
		t.Fatalf("baseline count = %d, %v", want, err)
	}

	// Trip after the second probe: the loop passes checkpoints at rows 0
	// and CheckpointRows, then must abort at 2*CheckpointRows.
	ctx := &trippingCtx{Context: context.Background(), after: 2}
	if _, err := SelectCtx(ctx, c, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("SelectCtx err = %v, want context.Canceled", err)
	}
	// The loop stopped at the first checkpoint past the trip: exactly one
	// more probe than the allowance, not one per remaining interval.
	if got := ctx.probes.Load(); got != 3 {
		t.Fatalf("context probed %d times, want 3 (stop at first checkpoint after trip)", got)
	}

	for name, call := range map[string]func(context.Context) error{
		"SelectCtx": func(ctx context.Context) error {
			_, err := SelectCtx(ctx, c, e)
			return err
		},
		"Histogram1DCtx": func(ctx context.Context) error {
			_, err := Histogram1DCtx(ctx, c, "x", e, []float64{0, 50, 100})
			return err
		},
		"ConditionalHistogram2DCtx": func(ctx context.Context) error {
			cc := Columns{"x": c["x"], "y": c["x"]}
			_, err := ConditionalHistogram2DCtx(ctx, cc, "x", "y", nil,
				[]float64{0, 50, 100}, []float64{0, 50, 100})
			return err
		},
		"FindIDsCtx": func(ctx context.Context) error {
			ids := make([]int64, len(c["x"]))
			for i := range ids {
				ids[i] = int64(i)
			}
			_, err := FindIDsCtx(ctx, ids, []int64{7, 8, 9})
			return err
		},
	} {
		ctx := &trippingCtx{Context: context.Background(), after: 1}
		if err := call(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCanceledContextStopsPromptly measures the headline guarantee: a scan
// over many checkpoint intervals, canceled from the start, returns without
// doing the work.
func TestCanceledContextStopsPromptly(t *testing.T) {
	c := bigColumns()
	e := query.MustParse("x > 50")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := SelectCtx(ctx, c, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full scan takes milliseconds; an aborted one must be far under
	// any full pass. Generous bound to stay robust on loaded machines.
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("canceled scan took %v", d)
	}
}
