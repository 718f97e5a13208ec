package fastbit

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/scan"
)

func TestUnconditionalHistogram2DMatchesScan(t *testing.T) {
	si, mem, _ := buildTestStep(t, 6000, 31, IndexOptions{Bins: 64})
	ev := si.Evaluator(mem)
	spec := histogram.NewSpec2D("x", "px", 32, 32)
	got, err := ev.Histogram2DCtx(context.Background(), nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.ConditionalHistogram2DCtx(context.Background(), scanColumns(mem), "x", "px", nil, got.XEdges, got.YEdges)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != want.Total() || got.Total() != 6000 {
		t.Fatalf("totals: fastbit %d scan %d", got.Total(), want.Total())
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
}

func TestConditionalHistogram2DMatchesScan(t *testing.T) {
	si, mem, _ := buildTestStep(t, 6000, 32, IndexOptions{Bins: 64})
	ev := si.Evaluator(mem)
	cond := query.MustParse("px > 1e9")
	spec := histogram.NewSpec2D("x", "px", 16, 16).WithXRange(0, 1e-3).WithYRange(1e9, 1e11)
	got, err := ev.Histogram2DCtx(context.Background(), cond, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.ConditionalHistogram2DCtx(context.Background(), scanColumns(mem), "x", "px", cond, got.XEdges, got.YEdges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
	if got.Total() == 0 {
		t.Fatal("conditional histogram empty — test data has no accelerated tail?")
	}
}

func TestConditionalHistogramDerivedRange(t *testing.T) {
	si, mem, _ := buildTestStep(t, 4000, 33, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	cond := query.MustParse("px > 1e9")
	spec := histogram.NewSpec2D("x", "px", 8, 8) // ranges derived from selection
	h, err := ev.Histogram2DCtx(context.Background(), cond, spec)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := ev.CountCtx(context.Background(), cond)
	if err != nil {
		t.Fatal(err)
	}
	// Derived ranges cover the selected values exactly, so no mass is lost.
	if h.Total() != cnt {
		t.Fatalf("histogram total %d != selection count %d", h.Total(), cnt)
	}
	if h.YEdges[0] <= 1e9 {
		// The derived Y range must come from the selected values only.
		t.Fatalf("derived y range starts at %g, expected above threshold", h.YEdges[0])
	}
}

func TestAdaptiveHistogram2D(t *testing.T) {
	si, mem, _ := buildTestStep(t, 8000, 34, IndexOptions{Bins: 64})
	ev := si.Evaluator(mem)
	spec := histogram.NewSpec2D("x", "px", 16, 16).WithBinning(histogram.Adaptive)
	h, err := ev.Histogram2DCtx(context.Background(), nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 8000 {
		t.Fatalf("adaptive histogram total %d", h.Total())
	}
	// Equal-weight property along each axis (marginals roughly balanced).
	mx := h.MarginalX()
	target := float64(mx.Total()) / float64(mx.Bins())
	for i, c := range mx.Counts {
		if float64(c) > 4*target {
			t.Errorf("adaptive x bin %d holds %d, target %.0f", i, c, target)
		}
	}
	// Edges strictly increasing, non-uniform in general.
	for i := 1; i < len(h.XEdges); i++ {
		if !(h.XEdges[i] > h.XEdges[i-1]) {
			t.Fatal("adaptive x edges not increasing")
		}
	}
}

func TestHistogram1DFromIndexCounts(t *testing.T) {
	si, mem, _ := buildTestStep(t, 5000, 35, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	spec := histogram.NewSpec1D("px", 32) // matches index bins exactly
	h, err := ev.Histogram1DCtx(context.Background(), nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.Histogram1DCtx(context.Background(), scanColumns(mem), "px", nil, h.Edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Counts {
		if h.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, h.Counts[i], want.Counts[i])
		}
	}
	if h.Total() != 5000 {
		t.Fatalf("total %d", h.Total())
	}
}

func TestHistogram1DConditionalAndAdaptive(t *testing.T) {
	si, mem, _ := buildTestStep(t, 5000, 36, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	cond := query.MustParse("px > 0")
	spec := histogram.Spec1D{Var: "px", Bins: 10, Binning: histogram.Adaptive,
		Lo: 0, Hi: si.Columns["px"].Max()}
	h, err := ev.Histogram1DCtx(context.Background(), cond, spec)
	if err != nil {
		t.Fatal(err)
	}
	cnt, _ := ev.CountCtx(context.Background(), cond)
	// Values equal to 0 are excluded by the condition but lie on the low
	// edge; totals must still match the selection size.
	if h.Total() != cnt {
		t.Fatalf("1D conditional total %d != count %d", h.Total(), cnt)
	}
	// Unknown variable errors.
	if _, err := ev.Histogram1DCtx(context.Background(), nil, histogram.NewSpec1D("zz", 8)); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestHistogramRequiresRawReader(t *testing.T) {
	si, mem, _ := buildTestStep(t, 100, 37, IndexOptions{Bins: 8})
	ev := si.Evaluator(mem)
	ev.Raw = nil
	if _, err := ev.Histogram2DCtx(context.Background(), nil, histogram.NewSpec2D("x", "px", 4, 4)); err == nil {
		t.Fatal("nil raw reader accepted")
	}
	if _, err := ev.Histogram1DCtx(context.Background(), nil, histogram.NewSpec1D("x", 4)); err == nil {
		t.Fatal("nil raw reader accepted")
	}
}

func TestStepIndexSerializationRoundTrip(t *testing.T) {
	si, mem, ids := buildTestStep(t, 3000, 38, IndexOptions{Bins: 24})
	var buf bytes.Buffer
	if _, err := si.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	si2, err := ReadStepIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if si2.N != si.N || si2.IDVar != "id" || si2.ID == nil {
		t.Fatalf("round trip meta: %+v", si2)
	}
	if len(si2.Columns) != len(si.Columns) {
		t.Fatalf("column count %d vs %d", len(si2.Columns), len(si.Columns))
	}
	// Same query answers through both.
	e := query.MustParse("px > 1e9 && y > 0")
	got, err := si2.Evaluator(mem).SelectCtx(context.Background(), e, 0, si2.N)
	if err != nil {
		t.Fatal(err)
	}
	want, err := si.Evaluator(mem).SelectCtx(context.Background(), e, 0, si.N)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("deserialized index: %d hits vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs", i)
		}
	}
	// ID index survived.
	p1 := si.ID.Lookup([]int64{ids[5]})
	p2 := si2.ID.Lookup([]int64{ids[5]})
	if len(p1) != len(p2) || p1[0] != p2[0] {
		t.Fatalf("ID lookup differs after round trip")
	}
	if si2.SizeBytes() <= 0 {
		t.Fatal("SizeBytes nonpositive")
	}
}

func TestStepIndexFileRoundTrip(t *testing.T) {
	si, _, _ := buildTestStep(t, 500, 39, IndexOptions{Bins: 8})
	path := t.TempDir() + "/step.idx"
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	si2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if si2.N != si.N {
		t.Fatalf("N = %d, want %d", si2.N, si.N)
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadStepIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadStepIndex(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage magic accepted")
	}
	if _, err := ReadStepIndex(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// Valid magic, bad version.
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := ReadStepIndex(&buf); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWAHSpaceAdvantageOnIndexBitmaps(t *testing.T) {
	// Index bitmaps are sparse (each row sets one bit across all bins), so
	// WAH compression should keep the whole index well under the
	// uncompressed equivalent of bins × N bits.
	si, _, _ := buildTestStep(t, 50000, 40, IndexOptions{Bins: 256})
	ix := si.Columns["px"]
	uncompressed := ix.Bins() * int(ix.N) / 8
	if ix.SizeBytes() >= uncompressed/4 {
		t.Fatalf("index %d bytes, uncompressed equivalent %d — WAH not earning its keep",
			ix.SizeBytes(), uncompressed)
	}
}

func TestHistogram1DFromBitmapsMatchesScan(t *testing.T) {
	si, mem, _ := buildTestStep(t, 6000, 41, IndexOptions{Bins: 24})
	ev := si.Evaluator(mem)
	cond := query.MustParse("y > 0")
	got, err := ev.Histogram1DFromBitmapsCtx(context.Background(), cond, "px")
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.Histogram1DCtx(context.Background(), scanColumns(mem), "px", cond, got.Edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
	// Unconditional comes straight from bin counts.
	un, err := ev.Histogram1DFromBitmapsCtx(context.Background(), nil, "px")
	if err != nil {
		t.Fatal(err)
	}
	if un.Total() != si.N {
		t.Fatalf("unconditional total = %d, want %d", un.Total(), si.N)
	}
	if _, err := ev.Histogram1DFromBitmapsCtx(context.Background(), nil, "nope"); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := ev.Histogram1DFromBitmapsCtx(context.Background(), query.MustParse("zz > 0"), "px"); err == nil {
		t.Fatal("bad condition accepted")
	}
}

func TestHistogram2DFromBitmapsMatchesScan(t *testing.T) {
	si, mem, _ := buildTestStep(t, 4000, 42, IndexOptions{Bins: 16})
	ev := si.Evaluator(mem)
	for _, cond := range []query.Expr{nil, query.MustParse("y > 0")} {
		got, err := ev.Histogram2DFromBitmapsCtx(context.Background(), cond, "x", "px")
		if err != nil {
			t.Fatal(err)
		}
		want, err := scan.ConditionalHistogram2DCtx(context.Background(), scanColumns(mem), "x", "px", cond, got.XEdges, got.YEdges)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("cond=%v bin %d: %d vs %d", cond, i, got.Counts[i], want.Counts[i])
			}
		}
	}
	if _, err := ev.Histogram2DFromBitmapsCtx(context.Background(), nil, "nope", "px"); err == nil {
		t.Fatal("unknown x accepted")
	}
	if _, err := ev.Histogram2DFromBitmapsCtx(context.Background(), nil, "x", "nope"); err == nil {
		t.Fatal("unknown y accepted")
	}
	if _, err := ev.Histogram2DFromBitmapsCtx(context.Background(), query.MustParse("zz > 0"), "x", "px"); err == nil {
		t.Fatal("bad condition accepted")
	}
}
