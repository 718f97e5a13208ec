package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fastquery"
	"repro/internal/query"
	"repro/internal/scan"
	"repro/internal/sim"
)

// shape is the dataset and request-pool size.
type shape struct {
	Steps, Particles, Beam int
	// LiveSeedSteps seed the live catalog of ingest_live; LiveParticles
	// is the background size of every live step (seeded and appended).
	LiveSeedSteps, LiveParticles int
	// PoolLoops is the number of distinct drill loops (4 distinct
	// requests each); SessionLoops the number of distinct session loops.
	PoolLoops, SessionLoops int
}

var (
	fullShape  = shape{Steps: 8, Particles: 100000, Beam: 600, LiveSeedSteps: 3, LiveParticles: 50000, PoolLoops: 1024, SessionLoops: 400}
	smokeShape = shape{Steps: 4, Particles: 4000, Beam: 100, LiveSeedSteps: 2, LiveParticles: 3000, PoolLoops: 40, SessionLoops: 20}
)

// quantiles holds one step's sorted columns of the variables the request
// generator cuts on, so a hit fraction maps to an exact threshold.
type quantiles map[string][]float64

var cutVars = []string{"px", "x", "py"}

// above returns the threshold t for which "v > t" selects about frac of
// the step's rows (at least one row, never all of them).
func (q quantiles) above(v string, frac float64) float64 {
	s := q[v]
	n := len(s)
	k := int(frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	return (s[n-k-1] + s[n-k]) / 2
}

func newQuantiles(cols map[string][]float64) quantiles {
	q := quantiles{}
	for _, v := range cutVars {
		s := append([]float64(nil), cols[v]...)
		sort.Float64s(s)
		q[v] = s
	}
	return q
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// staticData is the generated read-only dataset the drill and session
// workloads serve.
type staticData struct {
	dir   string
	steps int
	rows  []uint64
	bytes int64 // data files on disk
	tabs  []quantiles
}

func simConfig(seed uint64, steps, particles, beam int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Steps = steps
	cfg.BackgroundPerStep = particles
	cfg.BeamParticles = beam
	cfg.Seed = seed
	return cfg
}

// prepareStatic generates (or reuses) the seeded raw dataset — data files
// only; the index build belongs to set-up — and loads the per-step
// quantile tables. Only the current seed's dataset is kept on disk.
func (b *bench) prepareStatic() (*staticData, error) {
	sh := b.shape
	name := fmt.Sprintf("%d-%dx%d", b.opt.seed, sh.Steps, sh.Particles)
	base := filepath.Join(b.stateDir, "data")
	dir := filepath.Join(base, name)
	ready := filepath.Join(dir, ".ready")
	if _, err := os.Stat(ready); err != nil {
		entries, _ := os.ReadDir(base)
		for _, e := range entries {
			if e.Name() != name {
				os.RemoveAll(filepath.Join(base, e.Name()))
			}
		}
		os.RemoveAll(dir)
		cfg := simConfig(b.opt.seed, sh.Steps, sh.Particles, sh.Beam)
		if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{SkipIndex: true}); err != nil {
			return nil, err
		}
		if err := os.WriteFile(ready, nil, 0o644); err != nil {
			return nil, err
		}
	}
	src, err := fastquery.Open(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	d := &staticData{dir: dir, steps: src.Steps(), bytes: diskBytes(dir, ".col")}
	for t := 0; t < d.steps; t++ {
		st, err := src.OpenStep(t)
		if err != nil {
			return nil, err
		}
		cols := map[string][]float64{}
		for _, v := range cutVars {
			if cols[v], err = st.ReadColumn(v); err != nil {
				st.Close()
				return nil, err
			}
		}
		d.rows = append(d.rows, st.Rows())
		d.tabs = append(d.tabs, newQuantiles(cols))
		st.Close()
	}
	return d, nil
}

// diskBytes sums the size of the files in dir with the given suffix.
func diskBytes(dir, suffix string) int64 {
	var n int64
	filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && strings.HasSuffix(path, suffix) {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// oracle maps "step|predicate" to the scan-backend count.
type oracle map[string]uint64

func scanKey(step int, q string) string { return strconv.Itoa(step) + "|" + q }

// splitKey is the inverse of scanKey.
func splitKey(k string) (step int, q string, err error) {
	i := strings.IndexByte(k, '|')
	if i < 0 {
		return 0, "", fmt.Errorf("scan key %q: no step", k)
	}
	step, err = strconv.Atoi(k[:i])
	return step, k[i+1:], err
}

// scanCounts computes the scan-backend count of every (step, predicate)
// key in keys over dir: each step's columns are read once through
// fastquery and every predicate is evaluated by the scan kernel, two
// workers wide.
func scanCounts(dir string, keys []string) (oracle, error) {
	src, err := fastquery.Open(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	type job struct {
		key  string
		expr query.Expr
	}
	byStep := map[int][]job{}
	for _, k := range keys {
		t, q, err := splitKey(k)
		if err != nil {
			return nil, err
		}
		e, err := query.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("scan gate: parse %q: %w", q, err)
		}
		byStep[t] = append(byStep[t], job{k, e})
	}
	o := make(oracle, len(keys))
	for t, jobs := range byStep {
		st, err := src.OpenStep(t)
		if err != nil {
			return nil, err
		}
		cols := scan.Columns{}
		for _, j := range jobs {
			for _, v := range query.Vars(j.expr) {
				if cols[v] == nil {
					if cols[v], err = st.ReadColumn(v); err != nil {
						st.Close()
						return nil, err
					}
				}
			}
		}
		st.Close()
		counts := make([]uint64, len(jobs))
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(jobs) && errs[w] == nil; i += 2 {
					counts[i], errs[w] = scan.Count(cols, jobs[i].expr)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i, j := range jobs {
			o[j.key] = counts[i]
		}
	}
	return o, nil
}

// scanClaim is an answer that must equal the scan-backend count of key.
type scanClaim struct {
	key, what string
	value     uint64
}

func (b *bench) claimScan(key, what string, value uint64) {
	b.mu.Lock()
	b.claims = append(b.claims, scanClaim{key, what, value})
	b.mu.Unlock()
}

// checkScan is the fastbit ≡ scan gate: after the window, every claimed
// answer (counts, histogram totals, fresh selections) is compared with
// the scan backend's count of the same predicate over the same files.
func (b *bench) checkScan(dir string) error {
	seen := map[string]bool{}
	var keys []string
	for _, c := range b.claims {
		if !seen[c.key] {
			seen[c.key] = true
			keys = append(keys, c.key)
		}
	}
	t0 := time.Now()
	orc, err := scanCounts(dir, keys)
	if err != nil {
		return fmt.Errorf("scan oracle: %w", err)
	}
	for _, c := range b.claims {
		if want := b.expect(orc[c.key]); c.value != want {
			b.mismatch("%s: answered %d, scan backend counts %d", c.what, c.value, want)
		}
	}
	b.logf("checked %d answers against the scan backend (%d distinct predicates, %.1fs)", len(b.claims), len(keys), time.Since(t0).Seconds())
	return nil
}
