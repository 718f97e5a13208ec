package main

import (
	"reflect"
	"testing"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/sim"
)

func TestParseNodes(t *testing.T) {
	got, err := parseNodes("1,2, 5 ,100")
	if err != nil || len(got) != 4 || got[3] != 100 {
		t.Fatalf("parseNodes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-2", "x", "1,,x"} {
		if _, err := parseNodes(bad); err == nil {
			t.Fatalf("parseNodes(%q) accepted", bad)
		}
	}
}

func TestHistPairs(t *testing.T) {
	specs := histPairs(64)
	if len(specs) != 5 {
		t.Fatalf("histPairs = %d specs", len(specs))
	}
	for _, s := range specs {
		if s.XBins != 64 || s.YBins != 64 {
			t.Fatalf("spec bins = %d x %d", s.XBins, s.YBins)
		}
	}
}

// TestStridedSweepMatchesSerial: the -real-rpc study's strided whole-step
// fragment sweep over 1 and 3 shard workers returns, step for step, the
// histograms a local serial Step.Histogram2D computes.
func TestStridedSweepMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 5
	cfg.BackgroundPerStep = 1500
	cfg.BeamParticles = 40
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{Index: fastbit.IndexOptions{Bins: 32}}); err != nil {
		t.Fatal(err)
	}
	src, err := fastquery.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	b := &bench{src: src}
	thr, err := b.condThreshold()
	if err != nil {
		t.Fatal(err)
	}
	cond := &query.Compare{Var: "px", Op: query.GT, Value: thr / 4}
	spec := histPairs(16)[4]
	want := make([]*histogram.Hist2D, src.Steps())
	for s := range want {
		st, err := src.OpenStep(s)
		if err != nil {
			t.Fatal(err)
		}
		want[s], err = st.Histogram2D(cond, spec, fastquery.FastBit)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if want[src.Steps()-1].Total() == 0 {
		t.Fatal("conditional histogram empty: the comparison proves nothing")
	}
	for _, n := range []int{1, 3} {
		c, shutdown, err := startShards(n, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stridedSweep(c, src.Steps(), cond.String(), spec, fastquery.FastBit)
		shutdown()
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		for s := range want {
			if got[s] == nil || !reflect.DeepEqual(got[s].Counts, want[s].Counts) {
				t.Fatalf("%d shards, step %d: histogram differs from the serial one", n, s)
			}
		}
	}
}
