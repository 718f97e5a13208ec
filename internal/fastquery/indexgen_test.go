package fastquery

import (
	"context"
	"testing"

	"repro/internal/fastbit"
	"repro/internal/query"
	"repro/internal/sim"
)

func TestBuildIndexes(t *testing.T) {
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 3
	cfg.BackgroundPerStep = 800
	cfg.BeamParticles = 20
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	var indexed, skipped int
	err := BuildIndexes(dir, IndexOptions{
		Index: fastbit.IndexOptions{Bins: 16},
		Progress: func(step, total, bytes int) {
			if bytes < 0 {
				skipped++
			} else {
				indexed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if indexed != 3 || skipped != 0 {
		t.Fatalf("indexed=%d skipped=%d", indexed, skipped)
	}
	// The FastBit backend now answers, and agrees with the scan.
	src, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.OpenStep(2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.HasIndex() {
		t.Fatal("index not picked up")
	}
	e := query.MustParse("px > 1e9")
	fb, err := st.SelectCtx(context.Background(), e, FastBit)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := st.SelectCtx(context.Background(), e, Scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) != len(sc) {
		t.Fatalf("backends disagree after indexgen: %d vs %d", len(fb), len(sc))
	}
	// ID index works.
	if _, err := st.FindIDsCtx(context.Background(), []int64{1, 2, 3}, FastBit); err != nil {
		t.Fatal(err)
	}

	// Second run skips everything.
	indexed, skipped = 0, 0
	err = BuildIndexes(dir, IndexOptions{
		Index: fastbit.IndexOptions{Bins: 16},
		Progress: func(step, total, bytes int) {
			if bytes < 0 {
				skipped++
			} else {
				indexed++
			}
		},
	})
	if err != nil || indexed != 0 || skipped != 3 {
		t.Fatalf("re-run: indexed=%d skipped=%d err=%v", indexed, skipped, err)
	}

	// Force rebuilds with a subset of variables.
	err = BuildIndexes(dir, IndexOptions{
		Vars:  []string{"px"},
		Index: fastbit.IndexOptions{Bins: 8},
		Force: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := src.OpenStep(0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.SelectCtx(context.Background(), query.MustParse("px > 0"), FastBit); err != nil {
		t.Fatal(err)
	}
	// Unindexed variable now fails on the FastBit backend.
	if _, err := st2.SelectCtx(context.Background(), query.MustParse("y > 0"), FastBit); err == nil {
		t.Fatal("unindexed variable answered by FastBit backend")
	}
}

func TestBuildIndexesBadInput(t *testing.T) {
	if err := BuildIndexes(t.TempDir(), IndexOptions{}); err == nil {
		t.Fatal("missing dataset accepted")
	}
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 2
	cfg.BackgroundPerStep = 100
	cfg.BeamParticles = 5
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	if err := BuildIndexes(dir, IndexOptions{Vars: []string{"nope"}}); err == nil {
		t.Fatal("unknown variable accepted")
	}
}
