package stats

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/histogram"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("Std = %g", s.Std)
	}
	if s.Q25 != 2 || s.Q75 != 4 {
		t.Fatalf("quartiles = %g, %g", s.Q25, s.Q75)
	}
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Summarize([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	one, err := Summarize([]float64{7})
	if err != nil || one.Median != 7 || one.Std != 0 {
		t.Fatalf("single value: %+v, %v", one, err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	q, err := Quantile(vals, 0)
	if err != nil || q != 1 {
		t.Fatalf("q0 = %g, %v", q, err)
	}
	q, _ = Quantile(vals, 1)
	if q != 4 {
		t.Fatalf("q1 = %g", q)
	}
	q, _ = Quantile(vals, 0.5)
	if q != 2.5 {
		t.Fatalf("median = %g", q)
	}
	if _, err := Quantile(vals, 1.5); err == nil {
		t.Fatal("bad quantile accepted")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestHistQuantileMatchesExactOnLargeSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	h, err := histogram.Compute1DCtx(context.Background(), "v", vals, histogram.UniformEdges(-5, 5, 500))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		exact, _ := Quantile(vals, q)
		approx, err := HistQuantile(h, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 0.05 {
			t.Errorf("q=%g: hist %g vs exact %g", q, approx, exact)
		}
	}
	if _, err := HistQuantile(h, -1); err == nil {
		t.Fatal("bad quantile accepted")
	}
	empty := &histogram.Hist1D{Var: "v", Edges: []float64{0, 1}, Counts: []uint64{0}}
	if _, err := HistQuantile(empty, 0.5); err == nil {
		t.Fatal("empty histogram accepted")
	}
}

func TestHistMean(t *testing.T) {
	h := &histogram.Hist1D{
		Var:    "v",
		Edges:  []float64{0, 1, 2},
		Counts: []uint64{1, 3},
	}
	m, err := HistMean(h)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.5*1 + 1.5*3) / 4
	if math.Abs(m-want) > 1e-12 {
		t.Fatalf("HistMean = %g, want %g", m, want)
	}
	empty := &histogram.Hist1D{Var: "v", Edges: []float64{0, 1}, Counts: []uint64{0}}
	if _, err := HistMean(empty); err == nil {
		t.Fatal("empty histogram accepted")
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Correlation(xs, ys)
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g, %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Correlation(xs, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("anti-correlation = %g", r)
	}
	if _, err := Correlation(xs, ys[:2]); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := Correlation([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("zero variance accepted")
	}
}

// Property: correlation is symmetric and bounded.
func TestCorrelationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = 0.5*xs[i] + rng.NormFloat64()
		}
		a, err1 := Correlation(xs, ys)
		b, err2 := Correlation(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a-b) < 1e-12 && a >= -1-1e-12 && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	cols := map[string][]float64{
		"a": {1, 2, 3, 4},
		"b": {2, 4, 6, 8},
		"c": {5, 5, 5, 5}, // constant: correlates as 0
	}
	m, err := CorrelationMatrix(cols, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 1 || m[1][1] != 1 || m[2][2] != 1 {
		t.Fatal("diagonal not 1")
	}
	if math.Abs(m[0][1]-1) > 1e-12 || m[0][1] != m[1][0] {
		t.Fatalf("corr(a,b) = %g", m[0][1])
	}
	if m[0][2] != 0 {
		t.Fatalf("constant column corr = %g", m[0][2])
	}
	if _, err := CorrelationMatrix(cols, []string{"a", "zz"}); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestBeam(t *testing.T) {
	// A cold beam: uniform px, zero transverse momentum and offset.
	n := 100
	px := make([]float64, n)
	py := make([]float64, n)
	y := make([]float64, n)
	for i := range px {
		px[i] = 1e10
	}
	q, err := Beam(px, py, y)
	if err != nil {
		t.Fatal(err)
	}
	if q.EnergySpread != 0 || q.RMSy != 0 || q.Emittance != 0 {
		t.Fatalf("cold beam: %+v", q)
	}
	// A warm beam has positive spread and emittance.
	rng := rand.New(rand.NewSource(2))
	for i := range px {
		px[i] = 1e10 * (1 + 0.05*rng.NormFloat64())
		py[i] = 1e8 * rng.NormFloat64()
		y[i] = 1e-5 * rng.NormFloat64()
	}
	q, err = Beam(px, py, y)
	if err != nil {
		t.Fatal(err)
	}
	if q.EnergySpread < 0.03 || q.EnergySpread > 0.07 {
		t.Fatalf("EnergySpread = %g", q.EnergySpread)
	}
	if q.RMSy <= 0 || q.Emittance <= 0 {
		t.Fatalf("warm beam: %+v", q)
	}
	if _, err := Beam(nil, nil, nil); err == nil {
		t.Fatal("empty beam accepted")
	}
	if _, err := Beam(px, py[:10], y); err == nil {
		t.Fatal("ragged beam accepted")
	}
}
