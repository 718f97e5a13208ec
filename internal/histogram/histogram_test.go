package histogram

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestUniformEdges(t *testing.T) {
	e := UniformEdges(0, 10, 5)
	want := []float64{0, 2, 4, 6, 8, 10}
	if len(e) != len(want) {
		t.Fatalf("len = %d, want %d", len(e), len(want))
	}
	for i := range want {
		if math.Abs(e[i]-want[i]) > 1e-12 {
			t.Fatalf("edge[%d] = %g, want %g", i, e[i], want[i])
		}
	}
}

func TestUniformEdgesDegenerate(t *testing.T) {
	e := UniformEdges(5, 5, 4)
	if len(e) != 5 {
		t.Fatalf("len = %d", len(e))
	}
	for i := 1; i < len(e); i++ {
		if !(e[i] > e[i-1]) {
			t.Fatalf("degenerate range produced non-increasing edges %v", e)
		}
	}
	if e := UniformEdges(0, 1, 0); len(e) != 2 {
		t.Fatalf("n=0 edges: %v", e)
	}
}

func TestLocatorUniform(t *testing.T) {
	loc, err := NewLocator(UniformEdges(0, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{-0.001, -1}, {0, 0}, {0.5, 0}, {1, 1}, {9.999, 9},
		{10, 9}, {10.001, -1}, {5, 5},
	}
	for _, c := range cases {
		if got := loc.Bin(c.v); got != c.want {
			t.Errorf("Bin(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLocatorNonUniform(t *testing.T) {
	loc, err := NewLocator([]float64{0, 1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.9, 0}, {1, 1}, {9.99, 1}, {10, 2}, {100, 2}, {101, -1}, {-1, -1},
	}
	for _, c := range cases {
		if got := loc.Bin(c.v); got != c.want {
			t.Errorf("Bin(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLocatorRejectsBadEdges(t *testing.T) {
	if _, err := NewLocator([]float64{1}); err == nil {
		t.Fatal("single edge accepted")
	}
	if _, err := NewLocator([]float64{1, 1}); err == nil {
		t.Fatal("equal edges accepted")
	}
	if _, err := NewLocator([]float64{2, 1}); err == nil {
		t.Fatal("descending edges accepted")
	}
}

// Property: the uniform fast path and binary search agree.
func TestLocatorFastPathMatchesSearch(t *testing.T) {
	f := func(raw []float64) bool {
		loc, err := NewLocator(UniformEdges(-3, 7, 64))
		if err != nil {
			return false
		}
		general, err := NewLocator(append([]float64{-3 - 1e-15}, UniformEdges(-3, 7, 64)[1:]...))
		if err != nil {
			return false
		}
		_ = general
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			got := loc.Bin(v)
			want := slowBin(loc.Edges(), v)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func slowBin(edges []float64, v float64) int {
	n := len(edges) - 1
	if v < edges[0] || v > edges[n] {
		return -1
	}
	if v == edges[n] {
		return n - 1
	}
	for i := 0; i < n; i++ {
		if v >= edges[i] && v < edges[i+1] {
			return i
		}
	}
	return -1
}

func TestCompute1D(t *testing.T) {
	vals := []float64{0, 0.5, 1.5, 2.5, 9.99, 10, -5, 11}
	h, err := Compute1DCtx(context.Background(), "x", vals, UniformEdges(0, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 6 { // -5 and 11 fall outside
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[9] != 2 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if h.MaxCount() != 2 {
		t.Fatalf("MaxCount = %d", h.MaxCount())
	}
}

func TestCompute2D(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 3}
	ys := []float64{0, 0, 1, 1, 5}
	h, err := Compute2D("x", "y", xs, ys, UniformEdges(0, 4, 4), UniformEdges(0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 4 { // (3,5) is outside in y
		t.Fatalf("Total = %d, want 4", h.Total())
	}
	if h.At(0, 0) != 1 || h.At(1, 0) != 1 || h.At(2, 1) != 1 || h.At(3, 1) != 1 {
		t.Fatalf("Counts = %v", h.Counts)
	}
	if _, err := Compute2D("x", "y", xs, ys[:2], h.XEdges, h.YEdges); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: total count of a histogram equals the number of in-range values.
func TestHistogramConservesMassProperty(t *testing.T) {
	f := func(raw []float64) bool {
		edges := UniformEdges(-1, 1, 17)
		var inRange uint64
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(v, 3) // keep some values in and some out of range
			vals = append(vals, v)
			if v >= -1 && v <= 1 {
				inRange++
			}
		}
		h, err := Compute1DCtx(context.Background(), "v", vals, edges)
		if err != nil {
			return false
		}
		return h.Total() == inRange
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	e := UniformEdges(0, 1, 4)
	a, _ := Compute1DCtx(context.Background(), "v", []float64{0.1, 0.6}, e)
	b, _ := Compute1DCtx(context.Background(), "v", []float64{0.6, 0.9}, e)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 4 || a.Counts[2] != 2 {
		t.Fatalf("merged = %v", a.Counts)
	}
	c, _ := Compute1DCtx(context.Background(), "v", []float64{0.5}, UniformEdges(0, 1, 5))
	if err := a.Merge(c); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestMerge2D(t *testing.T) {
	xe, ye := UniformEdges(0, 1, 2), UniformEdges(0, 1, 2)
	a, _ := Compute2D("x", "y", []float64{0.1}, []float64{0.1}, xe, ye)
	b, _ := Compute2D("x", "y", []float64{0.9}, []float64{0.9}, xe, ye)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 2 || a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatalf("merged 2D = %v", a.Counts)
	}
	c, _ := Compute2D("x", "y", nil, nil, UniformEdges(0, 1, 3), ye)
	if err := a.Merge(c); err == nil {
		t.Fatal("2D shape mismatch accepted")
	}
}

func TestMarginals(t *testing.T) {
	xs := []float64{0.1, 0.1, 0.9}
	ys := []float64{0.1, 0.9, 0.9}
	h, _ := Compute2D("x", "y", xs, ys, UniformEdges(0, 1, 2), UniformEdges(0, 1, 2))
	mx := h.MarginalX()
	my := h.MarginalY()
	if mx.Counts[0] != 2 || mx.Counts[1] != 1 {
		t.Fatalf("MarginalX = %v", mx.Counts)
	}
	if my.Counts[0] != 1 || my.Counts[1] != 2 {
		t.Fatalf("MarginalY = %v", my.Counts)
	}
	if mx.Total() != h.Total() || my.Total() != h.Total() {
		t.Fatal("marginals lose mass")
	}
}

func TestDensityAndArea(t *testing.T) {
	h := &Hist2D{
		XVar: "x", YVar: "y",
		XEdges: []float64{0, 1, 3},
		YEdges: []float64{0, 2},
		Counts: []uint64{4, 4},
	}
	if h.Area(0, 0) != 2 || h.Area(1, 0) != 4 {
		t.Fatalf("Area wrong: %g %g", h.Area(0, 0), h.Area(1, 0))
	}
	if h.Density(0, 0) != 2 || h.Density(1, 0) != 1 {
		t.Fatalf("Density wrong: %g %g", h.Density(0, 0), h.Density(1, 0))
	}
	if h.MaxDensity() != 2 {
		t.Fatalf("MaxDensity = %g", h.MaxDensity())
	}
}

func TestNonEmpty(t *testing.T) {
	h, _ := Compute2D("x", "y", []float64{0.1, 0.9}, []float64{0.1, 0.9},
		UniformEdges(0, 1, 4), UniformEdges(0, 1, 4))
	var n int
	h.NonEmpty(func(ix, iy int, c uint64) {
		n++
		if c == 0 {
			t.Fatal("NonEmpty visited empty bin")
		}
	})
	if n != 2 {
		t.Fatalf("NonEmpty visited %d bins, want 2", n)
	}
}

func TestAdaptiveEdgesEqualWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Heavily skewed data: exponential-ish.
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	lo, hi := 0.0, 10.0
	edges, err := AdaptiveEdges(vals, lo, hi, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 17 {
		t.Fatalf("got %d edges, want 17", len(edges))
	}
	h, err := Compute1DCtx(context.Background(), "v", vals, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Each adaptive bin should hold roughly total/16; allow generous slack
	// because boundaries snap to the fine grid.
	target := float64(h.Total()) / 16
	for i, c := range h.Counts {
		if float64(c) > 3*target {
			t.Errorf("bin %d holds %d records, target %.0f — too unbalanced", i, c, target)
		}
	}
	// Adaptive bins must be narrower where data is dense (near zero).
	if edges[1]-edges[0] >= edges[16]-edges[15] {
		t.Errorf("adaptive edges not denser near the mode: first width %g, last width %g",
			edges[1]-edges[0], edges[16]-edges[15])
	}
}

func TestAdaptiveEdgesUniformDataStaysUniformish(t *testing.T) {
	vals := make([]float64, 10000)
	rng := rand.New(rand.NewSource(12))
	for i := range vals {
		vals[i] = rng.Float64()
	}
	edges, err := AdaptiveEdges(vals, 0, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := Compute1DCtx(context.Background(), "v", vals, edges)
	target := float64(h.Total()) / 8
	for i, c := range h.Counts {
		if float64(c) < 0.5*target || float64(c) > 1.6*target {
			t.Errorf("uniform data: bin %d count %d far from target %.0f", i, c, target)
		}
	}
}

func TestAdaptiveEdgesFromCountsValidation(t *testing.T) {
	if _, err := AdaptiveEdgesFromCounts([]float64{0, 1}, []uint64{1, 2}, 2, 0); err == nil {
		t.Fatal("mismatched edges/counts accepted")
	}
	if _, err := AdaptiveEdgesFromCounts([]float64{0, 1, 2}, []uint64{1, 2}, 0, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	// Requesting more bins than available returns the fine edges.
	e, err := AdaptiveEdgesFromCounts([]float64{0, 1, 2}, []uint64{1, 2}, 5, 0)
	if err != nil || len(e) != 3 {
		t.Fatalf("over-request: edges=%v err=%v", e, err)
	}
}

func TestAdaptiveEdgesCoverFullRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 1000)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		edges, err := AdaptiveEdges(vals, -4, 4, 10, 0)
		if err != nil {
			return false
		}
		if edges[0] != -4 || edges[len(edges)-1] != 4 {
			return false
		}
		for i := 1; i < len(edges); i++ {
			if !(edges[i] > edges[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveMinDensity(t *testing.T) {
	// A sparse uniform tail plus a dense spike: with a density floor the
	// sparse region should not be chopped into many under-dense bins.
	vals := make([]float64, 0, 11000)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Float64()*0.1) // dense spike in [0, 0.1]
	}
	for i := 0; i < 1000; i++ {
		vals = append(vals, 0.1+rng.Float64()*0.9) // sparse tail
	}
	noFloor, err := AdaptiveEdges(vals, 0, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	floored, err := AdaptiveEdges(vals, 0, 1, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(noFloor) != len(floored) {
		// Both must produce 9 edges (8 bins) or fewer only via degenerate merging.
		t.Logf("noFloor=%v floored=%v", noFloor, floored)
	}
	hf, _ := Compute1DCtx(context.Background(), "v", vals, floored)
	for i := range hf.Counts {
		w := hf.Width(i)
		if w > 0 && hf.Density(i) < 1 && hf.Counts[i] > 0 {
			t.Errorf("floored bin %d density %.2f below 1", i, hf.Density(i))
		}
	}
}

func TestRebin2D(t *testing.T) {
	// Fine 4x4 histogram rebinned to 2x2 with snapped coarse edges.
	xs := []float64{0.1, 0.3, 0.6, 0.9}
	ys := []float64{0.1, 0.4, 0.6, 0.9}
	fine, err := Compute2D("x", "y", xs, ys, UniformEdges(0, 1, 4), UniformEdges(0, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Rebin2D(fine, []float64{0, 0.5, 1}, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Total() != fine.Total() {
		t.Fatalf("rebin lost mass: %d vs %d", coarse.Total(), fine.Total())
	}
	if coarse.At(0, 0) != 2 || coarse.At(1, 1) != 2 {
		t.Fatalf("coarse counts = %v", coarse.Counts)
	}
	// Mismatched range must fail.
	if _, err := Rebin2D(fine, []float64{0, 0.5, 2}, []float64{0, 0.5, 1}); err == nil {
		t.Fatal("range mismatch accepted")
	}
	// Straddling edge must fail.
	if _, err := Rebin2D(fine, []float64{0, 0.3, 1}, []float64{0, 0.5, 1}); err == nil {
		t.Fatal("straddling coarse edge accepted")
	}
}

func TestBinningString(t *testing.T) {
	if Uniform.String() != "uniform" || Adaptive.String() != "adaptive" {
		t.Fatal("Binning.String wrong")
	}
	if Binning(42).String() == "" {
		t.Fatal("unknown Binning empty")
	}
}

func TestHist1DWriteCSV(t *testing.T) {
	h, err := Compute1DCtx(context.Background(), "px", []float64{0.1, 0.6, 0.7}, UniformEdges(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), sb.String())
	}
	if lines[0] != "px_lo,px_hi,count" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,0.5,1" || lines[2] != "0.5,1,2" {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestHist2DWriteCSV(t *testing.T) {
	h, err := Compute2D("x", "y", []float64{0.1, 0.9}, []float64{0.1, 0.9},
		UniformEdges(0, 1, 2), UniformEdges(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// Header + 2 non-empty bins only.
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "x_lo,x_hi,y_lo,y_hi,count") {
		t.Fatalf("header = %q", lines[0])
	}
}
