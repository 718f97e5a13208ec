package scan

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/histogram"
	"repro/internal/query"
)

func testColumns(n int, seed int64) Columns {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	pxs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		pxs[i] = rng.NormFloat64() * 1e9
		ys[i] = rng.Float64()*2 - 1
	}
	return Columns{"x": xs, "px": pxs, "y": ys}
}

func TestSelect(t *testing.T) {
	c := Columns{
		"px": {1, 5, 10, 3},
		"y":  {-1, 1, 1, -1},
	}
	e := query.MustParse("px > 2 && y > 0")
	got, err := SelectCtx(context.Background(), c, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Select = %v", got)
	}
}

func TestSelectUnknownVariable(t *testing.T) {
	c := Columns{"px": {1}}
	if _, err := SelectCtx(context.Background(), c, query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := Count(c, query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted by Count")
	}
}

func TestSelectMismatchedColumns(t *testing.T) {
	c := Columns{"a": {1, 2}, "b": {1}}
	if _, err := SelectCtx(context.Background(), c, query.MustParse("a > 0 && b > 0")); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestCountMatchesSelectProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := testColumns(500, seed)
		e := query.MustParse("px > 0 && x < 5")
		sel, err := SelectCtx(context.Background(), c, e)
		if err != nil {
			return false
		}
		cnt, err := Count(c, e)
		if err != nil {
			return false
		}
		return cnt == uint64(len(sel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram2DMatchesGenericCompute(t *testing.T) {
	c := testColumns(5000, 7)
	xe := histogram.UniformEdges(0, 10, 32)
	ye := histogram.UniformEdges(-1, 1, 16)
	got, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", nil, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	want, err := histogram.Compute2D("x", "y", c["x"], c["y"], xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
}

func TestConditionalHistogram2D(t *testing.T) {
	c := Columns{
		"x":  {0.5, 1.5, 2.5, 3.5},
		"y":  {0.5, 0.5, 0.5, 0.5},
		"px": {1, -1, 1, -1},
	}
	xe := histogram.UniformEdges(0, 4, 4)
	ye := histogram.UniformEdges(0, 1, 1)
	h, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", query.MustParse("px > 0"), xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 || h.At(0, 0) != 1 || h.At(2, 0) != 1 {
		t.Fatalf("conditional counts = %v", h.Counts)
	}
	// Condition referencing missing variable errors.
	if _, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", query.MustParse("zz > 0"), xe, ye); err == nil {
		t.Fatal("bad condition accepted")
	}
	// Unknown plot variables error.
	if _, err := ConditionalHistogram2DCtx(context.Background(), c, "zz", "y", nil, xe, ye); err == nil {
		t.Fatal("unknown x var accepted")
	}
	if _, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "zz", nil, xe, ye); err == nil {
		t.Fatal("unknown y var accepted")
	}
}

func TestHistogram1D(t *testing.T) {
	c := Columns{"px": {0.1, 0.2, 0.7, 0.9}, "y": {1, -1, 1, 1}}
	h, err := Histogram1DCtx(context.Background(), c, "px", query.MustParse("y > 0"), histogram.UniformEdges(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("1D counts = %v", h.Counts)
	}
	if _, err := Histogram1DCtx(context.Background(), c, "nope", nil, histogram.UniformEdges(0, 1, 2)); err == nil {
		t.Fatal("unknown var accepted")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Fatalf("MinMax = %g, %g", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty MinMax = %g, %g", lo, hi)
	}
}

func TestFindIDs(t *testing.T) {
	ids := []int64{100, 50, 200, 50, 300}
	ctx := context.Background()
	got, err := FindIDsCtx(ctx, ids, []int64{50, 300, 999})
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("FindIDsCtx = %v, %v", got, err)
	}
	if got, err := FindIDsCtx(ctx, ids, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty set FindIDsCtx = %v, %v", got, err)
	}
	if got, err := FindIDsCtx(ctx, nil, []int64{1}); err != nil || len(got) != 0 {
		t.Fatalf("empty ids FindIDsCtx = %v, %v", got, err)
	}
}

// Property: FindIDsCtx returns exactly the rows whose id is in the set.
func TestFindIDsProperty(t *testing.T) {
	f := func(rawIDs []int64, rawSet []int64) bool {
		got, err := FindIDsCtx(context.Background(), rawIDs, rawSet)
		if err != nil {
			return false
		}
		want := map[int64]bool{}
		for _, id := range rawSet {
			want[id] = true
		}
		gi := 0
		for row, id := range rawIDs {
			if want[id] {
				if gi >= len(got) || got[gi] != uint64(row) {
					return false
				}
				gi++
			}
		}
		return gi == len(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParallelHistogram2DMatchesSerial(t *testing.T) {
	c := testColumns(20000, 9)
	xe := histogram.UniformEdges(0, 10, 64)
	ye := histogram.UniformEdges(-1, 1, 64)
	cond := query.MustParse("px > 0")
	want, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", cond, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		got, err := ParallelHistogram2DCtx(context.Background(), c, "x", "y", cond, xe, ye, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Total() != want.Total() {
			t.Fatalf("workers=%d: total %d vs %d", workers, got.Total(), want.Total())
		}
		for i := range want.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("workers=%d: bin %d differs", workers, i)
			}
		}
	}
}

func TestParallelHistogram2DMoreWorkersThanRows(t *testing.T) {
	c := testColumns(50, 11)
	xe := histogram.UniformEdges(0, 10, 4)
	ye := histogram.UniformEdges(-1, 1, 4)
	h, err := ParallelHistogram2DCtx(context.Background(), c, "x", "y", nil, xe, ye, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 50 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestParallelHistogram2DValidation(t *testing.T) {
	c := testColumns(100, 10)
	xe := histogram.UniformEdges(0, 10, 4)
	ye := histogram.UniformEdges(-1, 1, 4)
	if _, err := ParallelHistogram2DCtx(context.Background(), c, "zz", "y", nil, xe, ye, 2); err == nil {
		t.Fatal("unknown x accepted")
	}
	if _, err := ParallelHistogram2DCtx(context.Background(), c, "x", "zz", nil, xe, ye, 2); err == nil {
		t.Fatal("unknown y accepted")
	}
	if _, err := ParallelHistogram2DCtx(context.Background(), c, "x", "y", query.MustParse("zz > 0"), xe, ye, 2); err == nil {
		t.Fatal("bad condition accepted")
	}
	bad := Columns{"x": {1, 2}, "y": {1}}
	if _, err := ParallelHistogram2DCtx(context.Background(), bad, "x", "y", nil, xe, ye, 2); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// Property: for any worker count the parallel histogram conserves mass.
func TestParallelHistogramMassProperty(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		workers := int(workersRaw%8) + 1
		c := testColumns(1000, seed)
		xe := histogram.UniformEdges(0, 10, 8)
		ye := histogram.UniformEdges(-1, 1, 8)
		h, err := ParallelHistogram2DCtx(context.Background(), c, "x", "y", nil, xe, ye, workers)
		if err != nil {
			return false
		}
		// All x values lie in [0,10); y in [-1,1): total equals rows.
		return h.Total() == 1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
