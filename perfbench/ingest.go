package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/sim"
)

// liveSteps bounds how many steps the live run can ever append.
const liveSteps = 200

// liveData is the ingest_live dataset: a seeded sim run whose first
// LiveSeedSteps steps seed the catalog and whose later steps are appended
// during the window. Quantile tables are filled as steps are generated.
type liveData struct {
	dir string
	run *sim.Simulation

	mu   sync.Mutex
	tabs map[int]quantiles
}

func (l *liveData) tab(t int) quantiles {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tabs[t]
}

// stepColumns generates step t as ingest columns and records its
// quantiles.
func (l *liveData) stepColumns(t int) ([]ingest.Column, error) {
	ps, err := l.run.Step(t)
	if err != nil {
		return nil, err
	}
	cols := ps.Columns()
	l.mu.Lock()
	if l.tabs[t] == nil {
		l.tabs[t] = newQuantiles(cols)
	}
	l.mu.Unlock()
	var out []ingest.Column
	for _, v := range sim.Variables {
		out = append(out, ingest.Column{Name: v, Float: cols[v]})
	}
	return append(out, ingest.Column{Name: sim.IDVar, Int: ps.ID}), nil
}

func liveVars() []string { return append(append([]string(nil), sim.Variables...), sim.IDVar) }

// seedCatalog creates a fresh live catalog holding the seed steps, data
// only (untimed set-up prep).
func (l *liveData) seedCatalog(n int) (*ingest.Catalog, error) {
	os.RemoveAll(l.dir)
	if err := os.MkdirAll(filepath.Dir(l.dir), 0o755); err != nil {
		return nil, err
	}
	cat, err := ingest.Create(l.dir, dsName, liveVars(), sim.IDVar)
	if err != nil {
		return nil, err
	}
	w := ingest.NewWriter(cat, 0)
	for t := 0; t < n; t++ {
		cols, err := l.stepColumns(t)
		if err != nil {
			return nil, err
		}
		if _, _, err := w.AppendStep(cols); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// ingestPeriod paces the writer like a simulation emitting a step on a
// fixed cadence: a cycle starts every period (or at once when the last
// one overran), so every run interleaves the same number of commits and
// index builds with the reads.
const ingestPeriod = 500 * time.Millisecond

// ingestWriter is the writing client: append the next seeded step, then
// poll until the server reports it indexed, then publish it to the
// reader as the newest indexed step.
func (b *bench) ingestWriter(w *window, l *liveData, next *int, newest func(int), lags *[]float64) error {
	for cycle := time.Now(); w.open(); cycle = cycle.Add(ingestPeriod) {
		time.Sleep(time.Until(cycle))
		if !w.open() {
			return nil
		}
		t := *next
		if t >= liveSteps {
			return nil
		}
		cols, err := l.stepColumns(t)
		if err != nil {
			return err
		}
		body := serve.IngestBody{Dataset: dsName}
		for _, c := range cols {
			body.Columns = append(body.Columns, serve.IngestColumn{Name: c.Name, Float: c.Float, Int: c.Int})
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp := w.timed(b.topo.http, "ingest", http.MethodPost, "/v1/ingest", raw)
		if resp == nil {
			return fmt.Errorf("ingest of step %d failed", t)
		}
		acked := time.Now()
		var ack serve.IngestResponse
		if err := json.Unmarshal(resp, &ack); err != nil {
			return err
		}
		if ack.Step != t || ack.Rows != uint64(len(cols[0].Float)) {
			b.mismatch("ingest ack for step %d: step %d, %d rows, want %d", t, ack.Step, ack.Rows, len(cols[0].Float))
		}
		*next = t + 1
		for {
			data, err := b.topo.http.getOK(fmt.Sprintf("/v1/steps?dataset=%s&detail=1", dsName))
			if err != nil {
				return err
			}
			var sb serve.StepsBody
			if err := json.Unmarshal(data, &sb); err != nil {
				return err
			}
			if t < len(sb.Detail) && sb.Detail[t].IndexState == "indexed" {
				break
			}
			if time.Since(acked) > 60*time.Second {
				return fmt.Errorf("step %d not indexed after 60s", t)
			}
			time.Sleep(5 * time.Millisecond)
		}
		*lags = append(*lags, ms(time.Since(acked)))
		newest(t)
	}
	return nil
}

// runIngest is ingest_live: one client appends steps through POST
// /v1/ingest and waits for each to be indexed; the other replays the
// drill stream against the newest indexed step.
func runIngest(b *bench) error {
	sh := b.shape
	l := &liveData{dir: filepath.Join(b.runDir, "live"), tabs: map[int]quantiles{}}
	run, err := sim.New(simConfig(b.opt.seed, sh.LiveSeedSteps+liveSteps, sh.LiveParticles, sh.Beam))
	if err != nil {
		return err
	}
	l.run = run
	b.dataDir = l.dir
	var cat *ingest.Catalog
	prep := func() (err error) {
		cat, err = l.seedCatalog(sh.LiveSeedSteps)
		return err
	}
	build := func() error {
		bl := ingest.NewBuilder(cat, ingest.BuilderConfig{Index: indexOpts})
		for t := 0; t < sh.LiveSeedSteps; t++ {
			if _, err := bl.BuildStep(t); err != nil {
				return err
			}
		}
		return nil
	}
	seedSteps := make([]int, sh.LiveSeedSteps)
	for i := range seedSteps {
		seedSteps[i] = i
	}
	if err := b.setup(prep, build, true, l.dir, func(t *topo) error { return b.warmSteps(t, seedSteps, l.tab) }); err != nil {
		return err
	}

	var newestMu sync.Mutex
	newest := sh.LiveSeedSteps - 1
	setNewest := func(t int) { newestMu.Lock(); newest = t; newestMu.Unlock() }
	resolve := func(loopSpec) (int, quantiles) {
		newestMu.Lock()
		t := newest
		newestMu.Unlock()
		return t, l.tab(t)
	}
	pool := makePool(b.opt.seed, sh.PoolLoops, 1)
	reader := newDrillStream(b.opt.seed, pool, 1, resolve)
	dc := newDrillChecker(b)
	next := sh.LiveSeedSteps
	var lags []float64
	var werr error
	client := func(w *window, c int) {
		if c == 0 {
			if err := b.ingestWriter(w, l, &next, setNewest, &lags); err != nil && werr == nil {
				werr = err
			}
			return
		}
		b.drillClient(w, reader, dc)
	}
	if err := b.measure(client); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	if len(lags) > 0 {
		b.metric("index_lag_p50_ms", median(lags), len(lags))
	}
	b.closeTopo()

	// Committed steps never change, so the scan gate over the live
	// directory checks every answer against the step it was asked of.
	if err := b.checkScan(l.dir); err != nil {
		return err
	}
	b.logf("live dataset: %d seed steps, %d appended (%d background particles each, %d data bytes)",
		sh.LiveSeedSteps, next-sh.LiveSeedSteps, sh.LiveParticles, diskBytes(l.dir, ".col"))
	return nil
}
