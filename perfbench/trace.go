package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/pcoords"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/sim"
)

// span is one traced interval. Spans of one request share Req; a root
// span's Req is its own ID.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps the benchmark's spans in memory until the run ends. Spans
// are recorded around the calls the benchmark makes into each layer.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return ms(time.Since(t.t0)) }

// begin opens a span under parent (0 for a root) and returns its ID. A
// child inherits its parent's request identifier.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// selfMS is a span's duration minus the part of it its children cover
// (children may overlap: a scatter runs fragments concurrently).
func (t *tracer) selfMS(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	var iv [][2]float64
	for _, s := range t.spans {
		if s.Parent == id {
			iv = append(iv, [2]float64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := 0.0, p.Start
	for _, x := range iv {
		lo := max(x[0], reach)
		if x[1] > lo {
			covered += x[1] - lo
			reach = x[1]
		}
	}
	return p.End - p.Start - covered
}

func (t *tracer) write(path string, extra map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans}
	t.mu.Unlock()
	for k, v := range extra {
		doc[k] = v
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// traceNotes is what a traced window collects beside its samples.
type traceNotes struct {
	mu       sync.Mutex
	explains []*serve.ExplainBody
	keys     []string // distinct scan-gate keys (step|predicate) requested
	seenKeys map[string]bool
	selBytes []float64
	bodies   map[string][][]byte // a few untraced bodies per op, for encode timing
}

func (w *window) noteKey(key string) {
	w.notes.mu.Lock()
	defer w.notes.mu.Unlock()
	if w.notes.seenKeys == nil {
		w.notes.seenKeys = map[string]bool{}
	}
	if !w.notes.seenKeys[key] {
		w.notes.seenKeys[key] = true
		w.notes.keys = append(w.notes.keys, key)
	}
}

func (w *window) noteSelection(body []byte) {
	var sb serve.SessionSelectBody
	if json.Unmarshal(body, &sb) == nil {
		w.notes.mu.Lock()
		w.notes.selBytes = append(w.notes.selBytes, float64(sb.SizeBytes))
		w.notes.mu.Unlock()
	}
}

// noteBody keeps the explain profile of a traced response, or a few
// bodies per operation of an untraced one.
func (w *window) noteBody(op string, body []byte) {
	if w.traced {
		if eb := explainOf(body); eb != nil {
			w.notes.mu.Lock()
			w.notes.explains = append(w.notes.explains, eb)
			w.notes.mu.Unlock()
		}
		return
	}
	if w.b.tracer == nil {
		return
	}
	w.notes.mu.Lock()
	defer w.notes.mu.Unlock()
	if w.notes.bodies == nil {
		w.notes.bodies = map[string][][]byte{}
	}
	if len(w.notes.bodies[op]) < 3 {
		w.notes.bodies[op] = append(w.notes.bodies[op], append([]byte(nil), body...))
	}
}

// snapshot is the program's counters at one instant: /v1/stats, the
// federated /metrics exposition, and the shard executors' Stats().
type snapshot struct {
	stats      serve.StatsBody
	metrics    string
	fragHits   uint64
	fragMisses uint64
}

func (b *bench) snapshot() (snapshot, error) {
	var s snapshot
	raw, err := b.topo.http.getOK("/v1/stats")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s.stats); err != nil {
		return s, err
	}
	text, err := b.topo.http.getOK("/metrics")
	if err != nil {
		return s, err
	}
	s.metrics = string(text)
	s.fragHits, s.fragMisses = b.topo.fragStats()
	return s, nil
}

// measure runs the workload's clients. Untraced, one window gives the
// end-to-end metrics. Traced, an untraced half-window is followed by a
// half-window with ?debug=explain on every request; counters are
// snapshotted around the traced half, and the layers' public functions
// are timed on a sample of its requests.
func (b *bench) measure(client func(*window, int)) error {
	d := time.Duration(b.opt.seconds * float64(time.Second))
	if !b.opt.trace {
		w := b.newWindow(d, false)
		runClients(clients, func(c int) { client(w, c) })
		b.recordE2E(w, w.finish())
		return nil
	}
	wa := b.newWindow(d/2, false)
	runClients(clients, func(c int) { client(wa, c) })
	ssA := wa.finish()
	before, err := b.snapshot()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wb := b.newWindow(d/2, true)
	runClients(clients, func(c int) { client(wb, c) })
	ssB := wb.finish()
	runtime.ReadMemStats(&m1)
	after, err := b.snapshot()
	if err != nil {
		return err
	}
	b.counterMetrics(wa, ssA, wb, ssB, before, after, m1.TotalAlloc-m0.TotalAlloc)
	if err := b.microLayers(wa, wb); err != nil {
		return fmt.Errorf("layer timing: %w", err)
	}
	path := filepath.Join(b.stateDir, "traces", fmt.Sprintf("%s-%d.json", b.opt.workload, b.opt.seed))
	return b.tracer.write(path, map[string]any{
		"stats_before": before.stats, "stats_after": after.stats,
		"metrics_before": before.metrics, "metrics_after": after.metrics,
	})
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer metrics that come from counters
// and explain profiles.
func (b *bench) counterMetrics(wa *window, ssA []sample, wb *window, ssB []sample, s0, s1 snapshot, alloc uint64) {
	n := float64(len(ssB))
	c0, c1 := s0.stats.Cache, s1.stats.Cache
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	b.metric("serve.cache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	b.metric("serve.cache.coalesced", float64(c1.Coalesced-c0.Coalesced), len(ssB))
	a0, a1 := s0.stats.Admission, s1.stats.Admission
	shed := float64(a1.RejectedFull + a1.RejectedDeadline - a0.RejectedFull - a0.RejectedDeadline)
	b.metric("serve.shed_frac", ratio(shed, n), len(ssB))
	var scat float64
	if s0.stats.Sharding != nil && s1.stats.Sharding != nil {
		scat = float64(s1.stats.Sharding.Scatters - s0.stats.Sharding.Scatters)
	}
	b.metric("plan.rounds_per_req", ratio(scat, n), len(ssB))
	fh, fm := float64(s1.fragHits-s0.fragHits), float64(s1.fragMisses-s0.fragMisses)
	b.metric("shard.frag_cache.hit_ratio", ratio(fh, fh+fm), int(fh+fm))
	var reuse, scratch float64
	if s0.stats.Sessions != nil && s1.stats.Sessions != nil {
		reuse = float64(s1.stats.Sessions.RefineReuse - s0.stats.Sessions.RefineReuse)
		scratch = float64(s1.stats.Sessions.RefineScratch - s0.stats.Sessions.RefineScratch)
	}
	b.metric("session.reuse_ratio", ratio(reuse, reuse+scratch), int(reuse+scratch))
	b.metric("session.bytes", mean(wb.notes.selBytes), len(wb.notes.selBytes))
	b.metric("runtime.alloc_bytes_per_req", ratio(float64(alloc), n), len(ssB))
	la, lb := latencies(ssA), latencies(ssB)
	b.metric("trace.overhead_frac", median(lb)/median(la)-1, len(lb))
	var bodyBytes []float64
	for _, s := range ssA {
		if s.ok {
			bodyBytes = append(bodyBytes, float64(s.bytes))
		}
	}
	b.metric("serve.body_bytes", mean(bodyBytes), len(bodyBytes))
	b.metric("fastbit.index_loads", float64(b.indexLoads), 1)

	var wait, frags, eval, queue, bops, cand, ibytes, rows, dbytes, unattr []float64
	for _, eb := range wb.notes.explains {
		wait = append(wait, eb.AdmissionWaitMS)
		frags = append(frags, float64(eb.FragmentCount))
		var ev, qu float64
		for _, f := range eb.Fragments {
			ev += f.EvalMS
			qu += f.WaitMS
		}
		eval = append(eval, ev)
		queue = append(queue, qu)
		bops = append(bops, float64(eb.Totals.BitmapOps))
		cand = append(cand, float64(eb.Totals.CandidateChecks))
		ibytes = append(ibytes, float64(eb.Totals.IndexBytes))
		rows = append(rows, float64(eb.Totals.Rows))
		dbytes = append(dbytes, float64(eb.Totals.DataBytes))
		if eb.CacheSource == "" && len(eb.Fragments) > 0 {
			unattr = append(unattr, eb.ElapsedMS-eb.AdmissionWaitMS-criticalPath(eb.Fragments))
		}
	}
	ne := len(wb.notes.explains)
	b.metric("serve.admit.wait_ms", mean(wait), ne)
	b.metric("plan.fragments_per_req", mean(frags), ne)
	b.metric("shard.eval_ms", mean(eval), ne)
	b.metric("shard.queue_ms", mean(queue), ne)
	b.metric("fastbit.bitmap_ops", mean(bops), ne)
	b.metric("fastbit.candidate_checks", mean(cand), ne)
	b.metric("fastbit.index_bytes", mean(ibytes), ne)
	b.metric("scan.rows_scanned", mean(rows), ne)
	b.metric("colstore.data_bytes", mean(dbytes), ne)
	b.metric("plan.unattributed_ms", mean(unattr), len(unattr))
}

// criticalPath sums, over the plan's scatter rounds, the slowest
// fragment's eval+wait. Fragments of one round name distinct shards, so a
// round ends where a shard repeats.
func criticalPath(frags []plan.FragProfile) float64 {
	var total, roundMax float64
	seen := map[int]bool{}
	for _, f := range frags {
		if seen[f.Shard] {
			total += roundMax
			roundMax = 0
			seen = map[int]bool{}
		}
		seen[f.Shard] = true
		roundMax = max(roundMax, f.EvalMS+f.WaitMS)
	}
	return total + roundMax
}

// timeIt runs fn reps times inside a span and returns the median wall
// time in milliseconds.
func (b *bench) timeIt(name string, parent, reps int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		id := b.tracer.begin(name, parent)
		t0 := time.Now()
		err := fn()
		d := ms(time.Since(t0))
		b.tracer.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// spanRunner wraps the workload's plan.Runner so each fragment is a child
// span of the plan.execute span and, over RPC, its transport overhead and
// reply size are measured.
type spanRunner struct {
	inner  plan.Runner
	tr     *tracer
	parent int
	rpc    bool

	mu       sync.Mutex
	overhead []float64
	reply    []float64
}

func (r *spanRunner) RunFragment(ctx context.Context, shardIdx int, f plan.Fragment) (*plan.FragmentResult, error) {
	prof := plan.NewProfile()
	id := r.tr.begin("runner.fragment", r.parent)
	t0 := time.Now()
	res, err := r.inner.RunFragment(plan.WithProfile(ctx, prof), shardIdx, f)
	d := ms(time.Since(t0))
	r.tr.end(id)
	if err != nil || !r.rpc {
		return res, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, fmt.Errorf("encode fragment result: %w", err)
	}
	r.mu.Lock()
	for _, fp := range prof.Fragments() {
		r.overhead = append(r.overhead, d-fp.EvalMS-fp.WaitMS)
	}
	r.reply = append(r.reply, float64(buf.Len()))
	r.mu.Unlock()
	return res, nil
}

// evalRunner is the one-process runner: fragments evaluated in-process.
type evalRunner struct{ st *fastquery.Step }

func (r evalRunner) RunFragment(ctx context.Context, _ int, f plan.Fragment) (*plan.FragmentResult, error) {
	return shard.Eval(ctx, r.st, f)
}

// microLayers times the layers' public functions on a seeded sample of
// the traced window's distinct predicates, over the files the workload
// serves.
func (b *bench) microLayers(wa, wb *window) error {
	src, err := fastquery.Open(b.dataDir)
	if err != nil {
		return err
	}
	defer src.Close()
	steps := map[int]*fastquery.Step{}
	defer func() {
		for _, st := range steps {
			st.Close()
		}
	}()
	step := func(t int) (*fastquery.Step, error) {
		if steps[t] == nil {
			st, err := src.OpenStep(t)
			if err != nil {
				return nil, err
			}
			steps[t] = st
		}
		return steps[t], nil
	}
	keys := append([]string(nil), wb.notes.keys...)
	sort.Strings(keys) // arrival order depends on the clients' interleaving
	r := rand.New(rand.NewPCG(b.opt.seed, 0x7a))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > 12 {
		keys = keys[:12]
	}
	if len(keys) == 0 {
		return fmt.Errorf("traced window issued no predicates")
	}
	ctx := context.Background()
	var parse, fbEval, scEval, read, gather, bin, merge []float64
	var matched, checked float64
	var bitmaps []*bitmap.Vector
	type sel struct {
		st   *fastquery.Step
		expr query.Expr
	}
	var sels []sel
	sr := &spanRunner{tr: b.tracer, rpc: b.topo.client != nil}
	for _, key := range keys {
		t, q, err := splitKey(key)
		if err != nil {
			return err
		}
		root := b.tracer.begin("sample", 0)
		st, err := step(t)
		if err != nil {
			return err
		}
		var expr query.Expr
		// One parse takes microseconds: time 50 and report the mean.
		d, err := b.timeIt("query.parse", root, 1, func() error {
			for k := 0; k < 50; k++ {
				e, err := query.Parse(q)
				if err != nil {
					return err
				}
				expr = query.Canonical(e)
				_ = expr.String()
			}
			return nil
		})
		if err != nil {
			return err
		}
		parse = append(parse, d/50)
		cost := &obs.Cost{}
		var n uint64
		d, err = b.timeIt("fastbit.count", root, 1, func() (err error) {
			n, err = st.CountCtx(obs.WithCost(ctx, cost), expr, fastquery.FastBit)
			return err
		})
		if err != nil {
			return err
		}
		fbEval = append(fbEval, d)
		matched += float64(n)
		checked += float64(cost.Snapshot().CandidateChecks)
		if d, err = b.timeIt("scan.count", root, 1, func() error {
			_, err := st.CountCtx(ctx, expr, fastquery.Scan)
			return err
		}); err != nil {
			return err
		}
		scEval = append(scEval, d)
		if d, err = b.timeIt("colstore.read", root, 1, func() error {
			_, err := st.ReadColumn("px")
			return err
		}); err != nil {
			return err
		}
		read = append(read, d)
		pos, err := st.SelectCtx(ctx, expr, fastquery.FastBit)
		if err != nil {
			return err
		}
		var xs []float64
		if d, err = b.timeIt("colstore.gather", root, 1, func() (err error) {
			xs, err = st.ValuesAtCtx(ctx, "x", pos)
			return err
		}); err != nil {
			return err
		}
		gather = append(gather, d)
		ys, err := st.ValuesAtCtx(ctx, "px", pos)
		if err != nil {
			return err
		}
		if len(xs) > 0 {
			xe := histogram.UniformEdges(minOf(xs), maxOf(xs), 1024)
			ye := histogram.UniformEdges(minOf(ys), maxOf(ys), 1024)
			if d, err = b.timeIt("histogram.compute2d", root, 1, func() error {
				_, err := histogram.Compute2D("x", "px", xs, ys, xe, ye)
				return err
			}); err != nil {
				return err
			}
			bin = append(bin, d)
		}
		bm, err := bitmap.FromPositions(st.Rows(), pos)
		if err != nil {
			return err
		}
		if len(bitmaps) == 0 || bitmaps[0].Len() == bm.Len() {
			bitmaps = append(bitmaps, bm)
		}
		sels = append(sels, sel{st, expr})

		// plan.Execute over the workload's runner, with a resolution no
		// request uses so no fragment cache answers it.
		var inner plan.Runner = evalRunner{st}
		shards := 1
		if b.topo.client != nil {
			inner, shards = b.topo.client, b.topo.client.Shards()
		}
		pid := b.tracer.begin("plan.execute", root)
		sr.inner, sr.parent = inner, pid
		pq := plan.Query{Op: plan.OpHist2D, Dataset: dsName, Step: t, Query: expr.String(),
			Backend: fastquery.FastBit, Spec2: histogram.NewSpec2D("x", "px", 192, 192)}
		_, err = plan.Execute(ctx, pq, plan.ShardMap{Shards: shards}, st.Rows(), sr, plan.FailFast)
		b.tracer.end(pid)
		if err != nil {
			return fmt.Errorf("plan.execute: %w", err)
		}
		merge = append(merge, b.tracer.selfMS(pid))
		b.tracer.end(root)
	}
	b.metric("query.parse_ms", mean(parse), len(parse))
	b.metric("fastbit.eval_ms", mean(fbEval), len(fbEval))
	b.metric("scan.eval_ms", mean(scEval), len(scEval))
	b.metric("fastbit.candidate_hit_ratio", ratio(matched, checked), len(fbEval))
	b.metric("colstore.read_ms", mean(read), len(read))
	b.metric("colstore.gather_ms", mean(gather), len(gather))
	b.metric("histogram.bin_ms", mean(bin), len(bin))
	b.metric("plan.merge_ms", mean(merge), len(merge))
	b.metric("shard.rpc_overhead_ms", mean(sr.overhead), len(sr.overhead))
	b.metric("shard.reply_bytes", mean(sr.reply), len(sr.reply))

	if err := b.timeCombine(bitmaps); err != nil {
		return err
	}
	if err := b.timeEncode(wa); err != nil {
		return err
	}
	if err := b.timeRender(sels[0].st, sels[0].expr, sels[len(sels)-1].st, sels[len(sels)-1].expr); err != nil {
		return err
	}
	mid, err := step(src.Steps() / 2)
	if err != nil {
		return err
	}
	if err := b.timeSpeedups(mid); err != nil {
		return err
	}
	return b.timeIngest()
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// timeCombine times session.Combine over consecutive bitmap pairs.
func (b *bench) timeCombine(bms []*bitmap.Vector) error {
	var ds []float64
	modes := []string{"and", "andnot", "or"}
	for i := 0; i+1 < len(bms); i++ {
		for _, m := range modes {
			d, err := b.timeIt("session.combine", 0, 3, func() error {
				_, err := session.Combine(bms[i], bms[i+1], m)
				return err
			})
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
	}
	b.metric("session.combine_ms", mean(ds), len(ds))
	return nil
}

// timeEncode times json.Marshal of response bodies kept from the
// untraced half, decoded into the serve body types.
func (b *bench) timeEncode(wa *window) error {
	types := map[string]func() any{
		"count":  func() any { return new(serve.QueryBody) },
		"hist2d": func() any { return new(serve.Hist2DBody) },
		"select": func() any { return new(serve.SessionSelectBody) },
		"track":  func() any { return new(serve.SessionTrackBody) },
		"views":  func() any { return new(serve.SessionViewsBody) },
	}
	var ds []float64
	for op, bodies := range wa.notes.bodies {
		mk, ok := types[op]
		if !ok {
			continue
		}
		for _, raw := range bodies {
			v := mk()
			if err := json.Unmarshal(raw, v); err != nil {
				return fmt.Errorf("decode %s body: %w", op, err)
			}
			d, err := b.timeIt("serve.encode", 0, 3, func() error {
				_, err := json.Marshal(v)
				return err
			})
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
	}
	b.metric("serve.encode_ms", mean(ds), len(ds))
	return nil
}

// timeRender times the PNG path of a temporal parallel-coordinates view:
// a 4-axis plot with one histogram layer per sampled selection.
func (b *bench) timeRender(st1 *fastquery.Step, e1 query.Expr, st2 *fastquery.Step, e2 query.Expr) error {
	vars := []string{"x", "y", "px", "py"}
	axes := make([]pcoords.Axis, len(vars))
	for i, v := range vars {
		lo, hi, err := st1.MinMax(v)
		if err != nil {
			return err
		}
		if !(hi > lo) {
			hi = lo + 1
		}
		axes[i] = pcoords.Axis{Var: v, Min: lo, Max: hi}
	}
	plot, err := pcoords.New(axes, pcoords.DefaultOptions())
	if err != nil {
		return err
	}
	for li, s := range []struct {
		st *fastquery.Step
		e  query.Expr
	}{{st1, e1}, {st2, e2}} {
		hists := make([]*histogram.Hist2D, len(axes)-1)
		for i := range hists {
			spec := histogram.NewSpec2D(axes[i].Var, axes[i+1].Var, 32, 32)
			spec.XLo, spec.XHi = axes[i].Min, axes[i].Max
			spec.YLo, spec.YHi = axes[i+1].Min, axes[i+1].Max
			if hists[i], err = s.st.Histogram2DCtx(context.Background(), s.e, spec, fastquery.FastBit); err != nil {
				return err
			}
		}
		layer := &pcoords.HistLayer{Hists: hists}
		layer.Color.R, layer.Color.G, layer.Color.B, layer.Color.A = uint8(90+100*li), 200, 250, 255
		if err := plot.AddHistLayer(layer); err != nil {
			return err
		}
	}
	d, err := b.timeIt("render.png", 0, 3, func() error {
		c, err := plot.Render()
		if err != nil {
			return err
		}
		return c.EncodePNG(io.Discard)
	})
	if err != nil {
		return err
	}
	b.metric("render.png_ms", d, 3)
	return nil
}

// timeSpeedups measures the Fig. 12 shape on one step: scan ÷ fastbit
// count time at hit fraction 1e-4 and at 1.0.
func (b *bench) timeSpeedups(st *fastquery.Step) error {
	px, err := st.ReadColumn("px")
	if err != nil {
		return err
	}
	q := newQuantiles(map[string][]float64{"px": px, "x": px, "py": px})
	low := query.Canonical(query.MustParse("px > " + fmtF(q.above("px", 1e-4))))
	full := query.Canonical(query.MustParse("px > " + fmtF(q["px"][0]-1)))
	for _, c := range []struct {
		name string
		e    query.Expr
	}{{"fastbit.speedup_lowhit", low}, {"fastbit.speedup_fullhit", full}} {
		var t [2]float64
		for i, be := range []fastquery.Backend{fastquery.Scan, fastquery.FastBit} {
			if t[i], err = b.timeIt(c.name+"."+be.String(), 0, 5, func() error {
				_, err := st.CountCtx(context.Background(), c.e, be)
				return err
			}); err != nil {
				return err
			}
		}
		b.metric(c.name, ratio(t[0], t[1]), 5)
	}
	return nil
}

// timeIngest appends seeded steps to a scratch catalog and builds their
// indexes, timing ingest.Writer.AppendStep and ingest.Builder.BuildStep.
func (b *bench) timeIngest() error {
	dir := filepath.Join(b.runDir, "micro-ingest")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	cat, err := ingest.Create(dir, "micro", liveVars(), sim.IDVar)
	if err != nil {
		return err
	}
	run, err := sim.New(simConfig(b.opt.seed+1, 3, b.shape.LiveParticles, b.shape.Beam))
	if err != nil {
		return err
	}
	w := ingest.NewWriter(cat, 0)
	bl := ingest.NewBuilder(cat, ingest.BuilderConfig{Index: indexOpts})
	l := &liveData{run: run, tabs: map[int]quantiles{}}
	var app, build []float64
	var disk, user float64
	for t := 0; t < 3; t++ {
		cols, err := l.stepColumns(t)
		if err != nil {
			return err
		}
		var e ingest.StepEntry
		d, err := b.timeIt("ingest.append", 0, 1, func() (err error) {
			e, _, err = w.AppendStep(cols)
			return err
		})
		if err != nil {
			return err
		}
		app = append(app, d)
		disk += float64(e.DataBytes)
		user += float64(e.Rows) * 8 * float64(len(cols))
		if d, err = b.timeIt("ingest.build", 0, 1, func() error {
			_, err := bl.BuildStep(t)
			return err
		}); err != nil {
			return err
		}
		build = append(build, d)
	}
	b.metric("ingest.append_ms", mean(app), len(app))
	b.metric("ingest.bytes_per_user_byte", ratio(disk, user), len(app))
	b.metric("ingest.build_ms", mean(build), len(build))
	return nil
}
