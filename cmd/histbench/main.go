// Command histbench reproduces the paper's serial performance study:
//
//	-exp fig11  unconditional 2D histograms vs bin count   (paper Fig. 11)
//	-exp fig12  conditional 2D histograms vs hit count     (paper Fig. 12)
//	-exp fig13  identifier queries vs hit count            (paper Fig. 13)
//	-exp all    all of the above
//
// Each experiment compares the FastBit bitmap-index backend against the
// "Custom" sequential-scan baseline, exactly as the paper's charts do.
// Absolute times depend on the machine and generated dataset size; the
// shapes — FastBit's insensitivity to bin count, its dominance at low hit
// counts, the crossover for very unselective conditions, and the
// orders-of-magnitude gap on identifier queries — reproduce the paper's.
//
// Usage:
//
//	lwfagen -out /tmp/lwfa -steps 8 -particles 500000
//	histbench -data /tmp/lwfa -step 5 -exp all
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("histbench: ")

	var (
		data = flag.String("data", "", "dataset directory (required)")
		step = flag.Int("step", -1, "timestep to benchmark (-1 = middle)")
		exp  = flag.String("exp", "all", "fig11 | fig12 | fig13 | all")
		runs = flag.Int("runs", 3, "repetitions per measurement (median reported)")
		csv  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	src, err := fastquery.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	t := *step
	if t < 0 {
		t = src.Steps() / 2
	}
	b := bench{src: src, step: t, runs: *runs, csv: *csv}
	switch *exp {
	case "fig11":
		err = b.fig11()
	case "fig12":
		err = b.fig12()
	case "fig13":
		err = b.fig13()
	case "all":
		if err = b.fig11(); err == nil {
			if err = b.fig12(); err == nil {
				err = b.fig13()
			}
		}
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err != nil {
		log.Fatal(err)
	}
}

type bench struct {
	src  *fastquery.Source
	step int
	runs int
	csv  bool
}

func (b *bench) emit(t *report.Table) error {
	if b.csv {
		return t.FprintCSV(os.Stdout)
	}
	return t.Fprint(os.Stdout)
}

func (b *bench) open() (*fastquery.Step, error) { return b.src.OpenStep(b.step) }

// fig11: unconditional histograms vs bin count.
func (b *bench) fig11() error {
	st, err := b.open()
	if err != nil {
		return err
	}
	defer st.Close()
	rows, _ := st.Rows(), 0
	table := report.NewTable(
		fmt.Sprintf("Fig 11 — serial unconditional 2D histograms (x, px), step %d, %d records", b.step, rows),
		"bins", "fastbit_regular_s", "fastbit_adaptive_s", "custom_regular_s")
	for _, bins := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		specU := histogram.NewSpec2D("x", "px", bins, bins)
		specA := specU.WithBinning(histogram.Adaptive)
		fbU, err := report.MedianTime(b.runs, func() error {
			_, err := st.Histogram2DCtx(context.Background(), nil, specU, fastquery.FastBit)
			return err
		})
		if err != nil {
			return err
		}
		fbA, err := report.MedianTime(b.runs, func() error {
			_, err := st.Histogram2DCtx(context.Background(), nil, specA, fastquery.FastBit)
			return err
		})
		if err != nil {
			return err
		}
		cu, err := report.MedianTime(b.runs, func() error {
			_, err := st.Histogram2DCtx(context.Background(), nil, specU, fastquery.Scan)
			return err
		})
		if err != nil {
			return err
		}
		table.AddRow(fmt.Sprintf("%dx%d", bins, bins),
			report.Seconds(fbU), report.Seconds(fbA), report.Seconds(cu))
	}
	return b.emit(table)
}

// hitThresholds derives px thresholds yielding approximately the target
// hit counts, by sorting the column once (untimed setup).
func hitThresholds(st *fastquery.Step, targets []uint64) (map[uint64]float64, error) {
	px, err := st.ReadColumn("px")
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), px...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	out := map[uint64]float64{}
	for _, k := range targets {
		if k == 0 || k >= uint64(len(sorted)) {
			continue
		}
		out[k] = (sorted[k-1] + sorted[k]) / 2
	}
	return out, nil
}

func hitTargets(n uint64) []uint64 {
	var out []uint64
	for k := uint64(10); k < n; k *= 10 {
		out = append(out, k)
	}
	out = append(out, n/2, n*9/10)
	return out
}

// fig12: conditional histograms vs hit count at fixed 1024x1024 bins.
func (b *bench) fig12() error {
	st, err := b.open()
	if err != nil {
		return err
	}
	defer st.Close()
	thresholds, err := hitThresholds(st, hitTargets(st.Rows()))
	if err != nil {
		return err
	}
	targets := make([]uint64, 0, len(thresholds))
	for k := range thresholds {
		targets = append(targets, k)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	table := report.NewTable(
		fmt.Sprintf("Fig 12 — serial conditional 2D histograms (x, px), 1024x1024 bins, step %d", b.step),
		"hits", "threshold", "fastbit_regular_s", "fastbit_adaptive_s", "custom_regular_s")
	for _, k := range targets {
		thr := thresholds[k]
		cond := &query.Compare{Var: "px", Op: query.GT, Value: thr}
		specU := histogram.NewSpec2D("x", "px", 1024, 1024)
		specA := specU.WithBinning(histogram.Adaptive)
		hits, err := st.CountCtx(context.Background(), cond, fastquery.FastBit)
		if err != nil {
			return err
		}
		fbU, err := report.MedianTime(b.runs, func() error {
			_, err := st.Histogram2DCtx(context.Background(), cond, specU, fastquery.FastBit)
			return err
		})
		if err != nil {
			return err
		}
		fbA, err := report.MedianTime(b.runs, func() error {
			_, err := st.Histogram2DCtx(context.Background(), cond, specA, fastquery.FastBit)
			return err
		})
		if err != nil {
			return err
		}
		cu, err := report.MedianTime(b.runs, func() error {
			_, err := st.Histogram2DCtx(context.Background(), cond, specU, fastquery.Scan)
			return err
		})
		if err != nil {
			return err
		}
		table.AddRow(fmt.Sprintf("%d", hits), fmt.Sprintf("%.4g", thr),
			report.Seconds(fbU), report.Seconds(fbA), report.Seconds(cu))
	}
	return b.emit(table)
}

// fig13: identifier queries vs search-set size.
func (b *bench) fig13() error {
	st, err := b.open()
	if err != nil {
		return err
	}
	defer st.Close()
	all, err := st.ReadIDs()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	table := report.NewTable(
		fmt.Sprintf("Fig 13 — serial identifier queries, step %d, %d records", b.step, len(all)),
		"set_size", "hits", "fastbit_s", "custom_s", "speedup")
	for _, size := range []int{10, 100, 1000, 10000, 100000, 1000000} {
		if size > len(all) {
			break
		}
		set := make([]int64, size)
		for i := range set {
			set[i] = all[rng.Intn(len(all))]
		}
		var hits int
		fb, err := report.MedianTime(b.runs, func() error {
			pos, err := st.FindIDsCtx(context.Background(), set, fastquery.FastBit)
			hits = len(pos)
			return err
		})
		if err != nil {
			return err
		}
		cu, err := report.MedianTime(b.runs, func() error {
			_, err := st.FindIDsCtx(context.Background(), set, fastquery.Scan)
			return err
		})
		if err != nil {
			return err
		}
		speedup := float64(cu) / float64(maxDuration(fb, time.Nanosecond))
		table.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", hits),
			report.Seconds(fb), report.Seconds(cu), fmt.Sprintf("%.1fx", speedup))
	}
	return b.emit(table)
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
