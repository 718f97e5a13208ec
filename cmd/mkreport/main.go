// Command mkreport runs a compact version of the full evaluation against
// a dataset and writes a single self-contained HTML report: rendered
// parallel-coordinates figures plus the serial (Figs. 11-13 analogue) and
// scaling (Figs. 14-17 analogue) measurement tables.
//
// Usage:
//
//	mkreport -data data/lwfa -out report.html
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mkreport: ")

	var (
		data  = flag.String("data", "", "dataset directory (required)")
		out   = flag.String("out", "report.html", "output HTML path")
		bins  = flag.Int("bins", 256, "histogram bins for the timing tables")
		nodes = flag.String("title", "", "optional report title override")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	ex, err := core.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	src := ex.Source()
	title := *nodes
	if title == "" {
		title = fmt.Sprintf("Query-driven visual exploration report — %s", *data)
	}
	rep := &report.HTMLReport{
		Title: title,
		Intro: fmt.Sprintf("%d timesteps. Reproduction of Rübel et al., SC 2008: histogram-based "+
			"parallel coordinates over a FastBit-style bitmap index, compared against the "+
			"sequential-scan baseline.", ex.Steps()),
	}

	last := ex.Steps() - 1
	_, pxHi, err := ex.VarRange(last, "px")
	if err != nil {
		log.Fatal(err)
	}
	sel := fmt.Sprintf("px > %g", 0.5*pxHi)

	// Figure: context + focus parallel coordinates.
	canvas, err := ex.ContextFocusPlot(last, []string{"x", "y", "px", "py"}, "", sel, core.DefaultPlotOptions())
	if err != nil {
		log.Fatal(err)
	}
	rep.Sections = append(rep.Sections, report.Section{
		Title: "Beam selection (parallel coordinates, context + focus)",
		Text:  fmt.Sprintf("Focus query %s at t=%d, histogram-based rendering.", sel, last),
		PNG:   encodePNG(canvas),
	})

	// Figure: pseudocolor view.
	canvas, err = ex.ScatterPlot(last, "x", "y", "px", sel, core.DefaultScatterOptions())
	if err != nil {
		log.Fatal(err)
	}
	rep.Sections = append(rep.Sections, report.Section{
		Title: "Pseudocolor particle view",
		Text:  "All particles in gray; the selection colour-mapped by px.",
		PNG:   encodePNG(canvas),
	})

	// Table: conditional histogram timings across selectivities.
	st, err := src.OpenStep(last)
	if err != nil {
		log.Fatal(err)
	}
	condTable := report.NewTable("", "hits", "fastbit_s", "custom_s")
	for _, frac := range []float64{0.9, 0.5, 0.1} {
		cond := &query.Compare{Var: "px", Op: query.GT, Value: frac * pxHi}
		hits, err := st.CountCtx(context.Background(), cond, fastquery.FastBit)
		if err != nil {
			log.Fatal(err)
		}
		fb, err := report.MedianTime(3, func() error {
			_, err := st.Histogram2DCtx(context.Background(), cond, histogram.NewSpec2D("x", "px", *bins, *bins), fastquery.FastBit)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		cu, err := report.MedianTime(3, func() error {
			_, err := st.Histogram2DCtx(context.Background(), cond, histogram.NewSpec2D("x", "px", *bins, *bins), fastquery.Scan)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		condTable.AddRow(fmt.Sprintf("%d", hits), report.Seconds(fb), report.Seconds(cu))
	}
	st.Close()
	rep.Sections = append(rep.Sections, report.Section{
		Title: "Conditional histograms: index vs scan (Fig. 12 analogue)",
		Text:  fmt.Sprintf("2D histograms over (x, px) at %d×%d bins for momentum cuts of varying selectivity.", *bins, *bins),
		Table: condTable,
	})

	// Table: tracking scalability (Fig. 16/17 analogue).
	ids, err := st500IDs(ex, last)
	if err != nil {
		log.Fatal(err)
	}
	trackTable := report.NewTable("", "nodes", "fastbit_s", "custom_s")
	fbResults, err := trackResults(src, ids, fastquery.FastBit)
	if err != nil {
		log.Fatal(err)
	}
	cuResults, err := trackResults(src, ids, fastquery.Scan)
	if err != nil {
		log.Fatal(err)
	}
	nodeCounts := []int{1, 2, 5, 10, 20, 50, 100}
	fbPts := cluster.StrongScaling(fbResults, nodeCounts, nil)
	cuPts := cluster.StrongScaling(cuResults, nodeCounts, nil)
	for i, n := range nodeCounts {
		trackTable.AddRow(fmt.Sprintf("%d", n),
			report.Seconds(fbPts[i].Time), report.Seconds(cuPts[i].Time))
	}
	rep.Sections = append(rep.Sections, report.Section{
		Title: "Parallel particle tracking (Figs. 16/17 analogue)",
		Text: fmt.Sprintf("%d particles tracked across all %d timesteps; completion time of the "+
			"strided static assignment over independent nodes.", len(ids), ex.Steps()),
		Table: trackTable,
	})

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteHTML(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// st500IDs picks ~500 high-momentum identifiers at the given step.
func st500IDs(ex *core.Explorer, step int) ([]int64, error) {
	sel, err := ex.Select(step, "px > -1e300")
	if err != nil {
		return nil, err
	}
	px, err := sel.Values("px")
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), px...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := 500
	if k >= len(sorted) {
		k = len(sorted) / 2
	}
	thr := sorted[k]
	beam, err := ex.Select(step, fmt.Sprintf("px > %g", thr))
	if err != nil {
		return nil, err
	}
	return beam.IDs(), nil
}

func trackResults(src *fastquery.Source, ids []int64, backend fastquery.Backend) ([]cluster.Result, error) {
	tasks := make([]cluster.Task, src.Steps())
	for t := 0; t < src.Steps(); t++ {
		t := t
		tasks[t] = cluster.Task{Step: t, Run: func() (uint64, int, error) {
			st, err := src.OpenStep(t)
			if err != nil {
				return 0, 0, err
			}
			defer st.Close()
			if _, err := st.FindIDsCtx(context.Background(), ids, backend); err != nil {
				return 0, 0, err
			}
			return st.IOBytes(), 1, nil
		}}
	}
	return cluster.RunSerial(tasks, cluster.IOModel{})
}

func encodePNG(c *render.Canvas) []byte {
	var buf bytes.Buffer
	if err := c.EncodePNG(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}
