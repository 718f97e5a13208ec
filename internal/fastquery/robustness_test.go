package fastquery

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/sim"
)

// Cancellation and corruption behaviour of the query layer: a canceled
// context stops backend work, and a damaged sidecar index degrades a step
// to the scan backend instead of failing it.

func TestCanceledContextStopsQueries(t *testing.T) {
	src := testSource(t)
	st, err := src.OpenStep(2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	e := query.MustParse("px > 0")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, b := range []Backend{FastBit, Scan} {
		name := b.String()
		if _, err := st.CountCtx(ctx, e, b); !errors.Is(err, context.Canceled) {
			t.Errorf("%s CountCtx: err = %v, want context.Canceled", name, err)
		}
		if _, err := st.SelectCtx(ctx, e, b); !errors.Is(err, context.Canceled) {
			t.Errorf("%s SelectCtx: err = %v, want context.Canceled", name, err)
		}
		if _, err := st.Histogram2DCtx(ctx, e, histogram.NewSpec2D("x", "px", 16, 16), b); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Histogram2DCtx: err = %v, want context.Canceled", name, err)
		}
	}
	if _, err := st.Histogram2DParallelCtx(ctx, e, histogram.NewSpec2D("x", "px", 16, 16), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Histogram2DParallelCtx: err = %v, want context.Canceled", err)
	}

	// The same calls with a live context still work: cancellation checks
	// must not have broken the happy path.
	if n, err := st.CountCtx(context.Background(), e, Scan); err != nil || n == 0 {
		t.Fatalf("live CountCtx = %d, %v", n, err)
	}
}

// corruptibleDataset writes a private dataset the test can damage without
// affecting the package's shared fixture.
func corruptibleDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 2
	cfg.BackgroundPerStep = 1500
	cfg.BeamParticles = 30
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{
		Index: fastbit.IndexOptions{Bins: 32},
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestTruncatedIndexFallsBackToScan(t *testing.T) {
	dir := corruptibleDataset(t)
	e := query.MustParse("px > 0")

	// Baseline with healthy indexes: both backends agree.
	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := src.Dataset().IndexPath(0)
	st, err := src.OpenStep(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.CountCtx(context.Background(), e, FastBit)
	if err != nil || want == 0 {
		t.Fatalf("baseline count = %d, %v", want, err)
	}
	st.Close()
	src.Close()

	fi, err := os.Stat(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(idxPath, fi.Size()/3); err != nil {
		t.Fatal(err)
	}

	src2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	st0, err := src2.OpenStep(0)
	if err != nil {
		t.Fatalf("OpenStep on truncated index: %v (want fallback, not failure)", err)
	}
	defer st0.Close()
	if st0.HasIndex() {
		t.Fatal("truncated index still reported available")
	}
	if st0.IndexError() == nil {
		t.Fatal("IndexError nil for rejected index")
	}

	// Scan queries keep working and agree with the pre-damage answer.
	got, err := st0.CountCtx(context.Background(), e, Scan)
	if err != nil || got != want {
		t.Fatalf("scan count after truncation = %d, %v; want %d", got, err, want)
	}

	// FastBit requests get a clear, fatal (non-retryable) explanation.
	_, err = st0.CountCtx(context.Background(), e, FastBit)
	if err == nil || !strings.Contains(err.Error(), "index unavailable") {
		t.Fatalf("fastbit count after truncation: err = %v, want index-unavailable", err)
	}
	if !IsFatal(err) {
		t.Fatalf("index-unavailable error not fatal-classified: %v", err)
	}

	// The failure is recorded where /v1/stats can surface it.
	fails := src2.IndexFailures()
	if len(fails) != 1 || fails[0].Step != 0 || fails[0].Reason == "" {
		t.Fatalf("IndexFailures = %+v, want one entry for step 0", fails)
	}

	// The undamaged step is unaffected.
	st1, err := src2.OpenStep(1)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	if !st1.HasIndex() {
		t.Fatal("healthy step lost its index")
	}
}

func TestBitFlippedIndexFallsBackToScan(t *testing.T) {
	dir := corruptibleDataset(t)
	e := query.MustParse("px > 0")

	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := src.Dataset().IndexPath(1)
	st, err := src.OpenStep(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.CountCtx(context.Background(), e, Scan)
	if err != nil || want == 0 {
		t.Fatalf("baseline count = %d, %v", want, err)
	}
	st.Close()
	src.Close()

	// Flip a byte in the directory region: the header checksummed layout
	// rejects the file at open, like a truncation would.
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff // inside the section directory, past magic/version/N
	if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	src2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src2.Close()
	st1, err := src2.OpenStep(1)
	if err != nil {
		t.Fatalf("OpenStep on bit-flipped index: %v (want fallback, not failure)", err)
	}
	defer st1.Close()

	// Whether the flip was caught at open (index disabled) or deferred to
	// section load, the step must never panic and scan must stay correct.
	got, err := st1.CountCtx(context.Background(), e, Scan)
	if err != nil || got != want {
		t.Fatalf("scan count after bit flip = %d, %v; want %d", got, err, want)
	}
	if st1.HasIndex() {
		// Open-time checks passed; the CRC must catch it at query time.
		if _, err := st1.CountCtx(context.Background(), e, FastBit); err == nil {
			t.Fatal("fastbit query on bit-flipped index succeeded")
		}
	} else if st1.IndexError() == nil {
		t.Fatal("index disabled but IndexError nil")
	}
}
