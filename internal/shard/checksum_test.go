package shard

import (
	"context"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/histogram"
	"repro/internal/plan"
)

// fullResult populates every FragmentResult field, so a checksum test
// over it exercises the whole layout.
func fullResult() *plan.FragmentResult {
	return &plan.FragmentResult{
		Count: 42,
		MinMax: []plan.VarRange{
			{Var: "px", Lo: -1.5, Hi: 2.5, N: 7},
			{Var: "y", Lo: -3e-5, Hi: 4e-5, N: 9},
		},
		Hist1: &histogram.Hist1D{Var: "x", Edges: []float64{0, 1, 2, 3}, Counts: []uint64{4, 5, 6}},
		Hist2: &histogram.Hist2D{
			XVar: "x", YVar: "px",
			XEdges: []float64{0, 0.5, 1}, YEdges: []float64{-1, 0, 1},
			Counts: []uint64{1, 2, 3, 4},
		},
		Sel: []uint64{3, 17, 99},
	}
}

// cloneResult deep-copies a fragment result.
func cloneResult(r *plan.FragmentResult) *plan.FragmentResult {
	c := *r
	c.MinMax = append([]plan.VarRange(nil), r.MinMax...)
	if r.Hist1 != nil {
		h := *r.Hist1
		h.Edges = append([]float64(nil), h.Edges...)
		h.Counts = append([]uint64(nil), h.Counts...)
		c.Hist1 = &h
	}
	if r.Hist2 != nil {
		h := *r.Hist2
		h.XEdges = append([]float64(nil), h.XEdges...)
		h.YEdges = append([]float64(nil), h.YEdges...)
		h.Counts = append([]uint64(nil), h.Counts...)
		c.Hist2 = &h
	}
	c.Sel = append([]uint64(nil), r.Sel...)
	return &c
}

// flipF64 changes one float by its lowest mantissa bit.
func flipF64(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

// flipStr changes one byte of a string.
func flipStr(s string) string { return string(s[0]^1) + s[1:] }

func TestResultSumEqualResultsEqualSums(t *testing.T) {
	cases := map[string]*plan.FragmentResult{
		"empty":  {},
		"count":  {Count: 5},
		"full":   fullResult(),
		"hist1":  {Hist1: fullResult().Hist1},
		"hist2":  {Hist2: fullResult().Hist2},
		"minmax": {MinMax: fullResult().MinMax},
		"sel":    {Sel: []uint64{1, 2, 3}, Count: 3},
	}
	for name, r := range cases {
		if a, b := resultSum(r), resultSum(cloneResult(r)); a != b {
			t.Errorf("%s: equal results summed %08x and %08x", name, a, b)
		}
	}
	// Gob does not distinguish nil from empty slices, so neither may the sum.
	if resultSum(&plan.FragmentResult{}) != resultSum(&plan.FragmentResult{Sel: []uint64{}, MinMax: []plan.VarRange{}}) {
		t.Error("nil and empty slices summed differently")
	}
}

func TestResultSumDetectsEverySingleElementChange(t *testing.T) {
	type mutation struct {
		name string
		mut  func(r *plan.FragmentResult)
	}
	muts := []mutation{
		{"Count", func(r *plan.FragmentResult) { r.Count++ }},
		{"MinMax dropped", func(r *plan.FragmentResult) { r.MinMax = r.MinMax[:1] }},
		{"Hist1 absent", func(r *plan.FragmentResult) { r.Hist1 = nil }},
		{"Hist1 Var", func(r *plan.FragmentResult) { r.Hist1.Var = flipStr(r.Hist1.Var) }},
		{"Hist2 absent", func(r *plan.FragmentResult) { r.Hist2 = nil }},
		{"Hist2 XVar", func(r *plan.FragmentResult) { r.Hist2.XVar = flipStr(r.Hist2.XVar) }},
		{"Hist2 YVar", func(r *plan.FragmentResult) { r.Hist2.YVar = flipStr(r.Hist2.YVar) }},
		// Length prefixes keep adjacent strings from trading bytes.
		{"Hist2 var boundary", func(r *plan.FragmentResult) { r.Hist2.XVar, r.Hist2.YVar = "xp", "x" }},
		{"Sel dropped", func(r *plan.FragmentResult) { r.Sel = r.Sel[:2] }},
	}
	for i := range fullResult().MinMax {
		i := i
		muts = append(muts,
			mutation{"MinMax Var", func(r *plan.FragmentResult) { r.MinMax[i].Var = flipStr(r.MinMax[i].Var) }},
			mutation{"MinMax Lo", func(r *plan.FragmentResult) { r.MinMax[i].Lo = flipF64(r.MinMax[i].Lo) }},
			mutation{"MinMax Hi", func(r *plan.FragmentResult) { r.MinMax[i].Hi = flipF64(r.MinMax[i].Hi) }},
			mutation{"MinMax N", func(r *plan.FragmentResult) { r.MinMax[i].N ^= 1 }})
	}
	base := fullResult()
	for i := range base.Hist1.Edges {
		i := i
		muts = append(muts, mutation{"Hist1 Edges", func(r *plan.FragmentResult) { r.Hist1.Edges[i] = flipF64(r.Hist1.Edges[i]) }})
	}
	for i := range base.Hist1.Counts {
		i := i
		muts = append(muts, mutation{"Hist1 Counts", func(r *plan.FragmentResult) { r.Hist1.Counts[i] ^= 1 << 40 }})
	}
	for i := range base.Hist2.XEdges {
		i := i
		muts = append(muts, mutation{"Hist2 XEdges", func(r *plan.FragmentResult) { r.Hist2.XEdges[i] = flipF64(r.Hist2.XEdges[i]) }})
	}
	for i := range base.Hist2.YEdges {
		i := i
		muts = append(muts, mutation{"Hist2 YEdges", func(r *plan.FragmentResult) { r.Hist2.YEdges[i] = flipF64(r.Hist2.YEdges[i]) }})
	}
	for i := range base.Hist2.Counts {
		i := i
		muts = append(muts, mutation{"Hist2 Counts", func(r *plan.FragmentResult) { r.Hist2.Counts[i]++ }})
	}
	for i := range base.Sel {
		i := i
		muts = append(muts, mutation{"Sel", func(r *plan.FragmentResult) { r.Sel[i] ^= 1 << 63 }})
	}

	want := resultSum(base)
	for _, m := range muts {
		r := cloneResult(base)
		m.mut(r)
		if got := resultSum(r); got == want {
			t.Errorf("%s: mutation left the sum unchanged (%08x)", m.name, got)
		}
	}
	if resultSum(base) != want {
		t.Fatal("mutations leaked into the base result")
	}
}

// The old checksum marshalled the result to JSON, which rejects NaN and
// ±Inf, so such replies went out unsummed and unverified. The binary
// layout sums them like any other value.
func TestResultSumNonFiniteValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	r := &plan.FragmentResult{
		MinMax: []plan.VarRange{{Var: "px", Lo: nan, Hi: nan}, {Var: "y", Lo: inf, Hi: -inf}},
		Hist1:  &histogram.Hist1D{Var: "x", Edges: []float64{-inf, 0, inf}, Counts: []uint64{1, 2}},
	}
	sum := resultSum(r)
	if sum != resultSum(cloneResult(r)) {
		t.Fatal("equal non-finite results summed differently")
	}
	swapped := cloneResult(r)
	swapped.MinMax[1].Lo, swapped.MinMax[1].Hi = -inf, inf
	if resultSum(swapped) == sum {
		t.Fatal("swapping +Inf and -Inf left the sum unchanged")
	}
	finite := cloneResult(r)
	finite.MinMax[0].Lo = 0
	if resultSum(finite) == sum {
		t.Fatal("replacing NaN with 0 left the sum unchanged")
	}
}

// corruptShard is a Shard RPC receiver that answers every fragment with a
// result whose checksum does not match, as a corrupting transport would.
type corruptShard struct{}

func (corruptShard) Exec(args *ExecArgs, reply *ExecReply) error {
	reply.Result = &plan.FragmentResult{Count: 7}
	reply.CRC, reply.CRCOK = resultSum(reply.Result)^1, true
	return nil
}

func TestRunFragmentRejectsChecksumMismatch(t *testing.T) {
	srv := cluster.NewServer()
	defer srv.Close()
	if err := srv.RegisterName("Shard", corruptShard{}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	cfg := cluster.DefaultPoolConfig()
	cfg.MaxRetries, cfg.ProbeInterval = 0, 0
	c, err := DialShards([][]string{{l.Addr().String()}}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	before := metricReplyCorrupt.Load()
	res, err := c.RunFragment(context.Background(), 0, plan.Fragment{Op: plan.FragCount, Dataset: "lwfa"})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("RunFragment = %+v, %v; want a checksum error", res, err)
	}
	if got := metricReplyCorrupt.Load() - before; got != 1 {
		t.Fatalf("shard_reply_corrupt_total rose by %d, want 1", got)
	}
}
