package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/serve"
)

// loopSpec is one distinct drill loop of the pool, in quantile terms: the
// thresholds are resolved against the step it runs on.
type loopSpec struct {
	step     int
	f1       float64 // coarse px cut hit fraction, 1e-3 … 0.5
	f2       float64 // compound px cut hit fraction, 1e-5 … f1
	fx       float64 // x cut hit fraction, 0.3 … 0.9
	fine     int     // fine hist2d bins per axis
	adaptive bool
	scan     bool // the coarse count uses backend=scan
}

// fineBins cycles the refined view's resolution. 1024² comes once in 16
// loops and 512² three times: the frontend result cache and the per-shard
// fragment caches are bounded in entries, not bytes, and a 1024² partial
// is 8 MB on every shard, so a heavier mix would hold gigabytes.
var fineBins = []int{256, 512, 256, 256, 1024, 256, 512, 256, 256, 256, 512, 256, 256, 256, 256, 256}

// strata is the number of levels each hit fraction is stratified into.
const strata = 8

// stratified draws a log-uniform value in [lo, hi] from stratum level of
// strata, jittered within the stratum.
func stratified(r *rand.Rand, level int, lo, hi float64) float64 {
	u := (float64(level%strata) + r.Float64()) / strata
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// makePool draws the distinct drill loops of a seed. Loop i is the k-th
// loop of client c (i = 2k + c); resolution, backend and binning cycle
// with k, and every hit fraction and the step walk their strata with k,
// so each client — whatever the seed, however far it gets — runs the same
// mix of cheap and expensive loops. The seed picks the values within
// each stratum and the data they run on.
func makePool(seed uint64, n, steps int) []loopSpec {
	r := rand.New(rand.NewPCG(seed, 0xd1))
	pool := make([]loopSpec, n)
	for i := range pool {
		k, c := i/clients, i%clients
		f1 := stratified(r, 3*k+c, 1e-3, 0.5)
		pool[i] = loopSpec{
			step:     (k + 3*c + k/strata) % steps,
			f1:       f1,
			f2:       stratified(r, 5*k+3*c, 1e-5, f1),
			fx:       0.3 + 0.6*(float64((7*k+5*c)%strata)+r.Float64())/strata,
			fine:     fineBins[k%len(fineBins)],
			adaptive: k%4 == 2,
			scan:     k%4 == 3, // one count in 8
		}
	}
	return pool
}

// drillReq is one request of a drill stream.
type drillReq struct {
	op   string // count | hist2d
	step int
	key  string // scan-gate key: step + predicate as first sent
	path string
	// orig is the path of the request a resend repeats with its operands
	// reordered; "" for a fresh request.
	orig string
	// compound marks the requests a resend may repeat.
	compound bool
	terms    [2]string
	bins     int
	adaptive bool
}

// requests resolves a loop against one step's quantiles: count(coarse) →
// hist2d 64² → count(compound) → hist2d fine².
func (l loopSpec) requests(step int, q quantiles) []drillReq {
	q1 := "px > " + fmtF(q.above("px", l.f1))
	t2 := "px > " + fmtF(q.above("px", l.f2))
	tx := "x > " + fmtF(q.above("x", l.fx))
	q2 := t2 + " && " + tx
	backend := ""
	if l.scan {
		backend = "&backend=scan"
	}
	c1 := drillReq{op: "count", step: step, key: scanKey(step, q1),
		path: fmt.Sprintf("/v1/query?dataset=%s&step=%d&q=%s%s", dsName, step, esc(q1), backend)}
	h1 := drillReq{op: "hist2d", step: step, key: scanKey(step, q1), bins: 64,
		path: histPath(step, q1, 64, false, false)}
	c2 := drillReq{op: "count", step: step, key: scanKey(step, q2), compound: true, terms: [2]string{t2, tx},
		path: fmt.Sprintf("/v1/query?dataset=%s&step=%d&q=%s", dsName, step, esc(q2))}
	h2 := drillReq{op: "hist2d", step: step, key: scanKey(step, q2), compound: true, terms: [2]string{t2, tx},
		bins: l.fine, adaptive: l.adaptive, path: histPath(step, q2, l.fine, l.adaptive, false)}
	return []drillReq{c1, h1, c2, h2}
}

func histPath(step int, q string, bins int, adaptive, reorder bool) string {
	binning := ""
	if adaptive {
		binning = "&binning=adaptive"
	}
	if reorder {
		return fmt.Sprintf("/v1/hist2d?q=%s&ybins=%d&xbins=%d&y=px&x=x%s&step=%d&dataset=%s",
			esc(q), bins, bins, binning, step, dsName)
	}
	return fmt.Sprintf("/v1/hist2d?dataset=%s&step=%d&x=x&y=px&xbins=%d&ybins=%d%s&q=%s",
		dsName, step, bins, bins, binning, esc(q))
}

// resend repeats a compound request with its conjuncts and parameters
// reordered: canonically the same plan, so the result cache answers it.
func (r drillReq) resend() drillReq {
	q := r.terms[1] + " && " + r.terms[0]
	out := r
	out.orig = r.path
	out.compound = false
	if r.op == "count" {
		out.path = fmt.Sprintf("/v1/query?q=%s&step=%d&dataset=%s", esc(q), r.step, dsName)
	} else {
		out.path = histPath(r.step, q, r.bins, r.adaptive, true)
	}
	return out
}

// drillStream is one client's request stream: the client walks its share
// of the pool (loops c, c+2, c+4, … wrapping), and after every third
// fresh request re-sends one of its last eight compound requests with
// operands reordered, so a quarter of requests should hit the cache.
type drillStream struct {
	pool   []loopSpec
	next   int
	stride int
	r      *rand.Rand
	queue  []drillReq
	recent []drillReq
	fresh  int
	// resolve maps a loop to the step it runs on and that step's
	// quantiles (the newest indexed step on ingest_live).
	resolve func(loopSpec) (int, quantiles)
}

func newDrillStream(seed uint64, pool []loopSpec, c int, resolve func(loopSpec) (int, quantiles)) *drillStream {
	return &drillStream{pool: pool, next: c, stride: clients, r: rand.New(rand.NewPCG(seed, uint64(100+c))), resolve: resolve}
}

func (s *drillStream) nextReq() drillReq {
	if s.fresh == 3 && len(s.recent) > 0 {
		s.fresh = 0
		return s.recent[s.r.IntN(len(s.recent))].resend()
	}
	if len(s.queue) == 0 {
		l := s.pool[s.next%len(s.pool)]
		s.next += s.stride
		step, q := s.resolve(l)
		s.queue = l.requests(step, q)
	}
	r := s.queue[0]
	s.queue = s.queue[1:]
	s.fresh++
	if r.compound {
		s.recent = append(s.recent, r)
		if len(s.recent) > 8 {
			s.recent = s.recent[1:]
		}
	}
	return r
}

// answer is a checked response: its operation and body digest.
type answer struct {
	op     string
	digest string
	value  uint64 // count matches or histogram total
}

// drillChecker records every answer of a drill stream for the scan gate
// and checks each resend against the answer to its original.
type drillChecker struct {
	b       *bench
	mu      sync.Mutex
	answers map[string]answer // fresh request path → answer
}

func newDrillChecker(b *bench) *drillChecker {
	return &drillChecker{b: b, answers: map[string]answer{}}
}

// check validates one successful response.
func (dc *drillChecker) check(r drillReq, body []byte) {
	a := answer{op: r.op}
	var err error
	if r.op == "count" {
		var rows, matches uint64
		rows, matches, err = countOf(body)
		a.value, a.digest = matches, fmt.Sprintf("%d/%d", matches, rows)
	} else {
		a.digest, a.value, err = histDigest(body)
	}
	if err != nil {
		dc.b.mismatch("%s: %v", r.path, err)
		return
	}
	dc.b.claimScan(r.key, r.path, a.value)
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if r.orig != "" {
		if o, ok := dc.answers[r.orig]; ok && o.digest != a.digest {
			dc.b.mismatch("%s: reordered resend answered %s, original %s", r.path, a.digest, o.digest)
		}
		return
	}
	dc.answers[r.path] = a
}

// expect returns the expected value, perturbed once under --corrupt so
// the benchmark's tests can see the gate fire.
func (b *bench) expect(want uint64) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opt.corrupt && !b.corrupted {
		b.corrupted = true
		return want + 1
	}
	return want
}

// drillClient is the closed loop of one drill client.
func (b *bench) drillClient(w *window, s *drillStream, dc *drillChecker) {
	for w.open() {
		r := s.nextReq()
		if w.traced {
			w.noteKey(r.key)
		}
		if body := w.timed(w.b.topo.http, r.op, http.MethodGet, r.path, nil); body != nil {
			dc.check(r, body)
		}
	}
}

// runDrill is drill_local and drill_sharded: the same seeded refinement
// stream on one process or on a frontend over three shards.
func runDrill(b *bench) error {
	data, err := b.prepareStatic()
	if err != nil {
		return err
	}
	pool := makePool(b.opt.seed, b.shape.PoolLoops, data.steps)
	b.logf("dataset %s: %d steps × %d rows, %d data bytes; pool of %d loops (%d distinct requests)",
		data.dir, data.steps, data.rows[0], data.bytes, len(pool), 4*len(pool))
	b.dataDir = data.dir
	steps := make([]int, data.steps)
	for i := range steps {
		steps[i] = i
	}
	err = b.setup(func() error { return removeIndexes(data.dir) }, buildStaticIndexes(data.dir), false, data.dir,
		func(t *topo) error { return b.warmSteps(t, steps, func(s int) quantiles { return data.tabs[s] }) })
	if err != nil {
		return err
	}
	resolve := func(l loopSpec) (int, quantiles) { return l.step, data.tabs[l.step] }
	streams := make([]*drillStream, clients)
	for c := range streams {
		streams[c] = newDrillStream(b.opt.seed, pool, c, resolve)
	}
	dc := newDrillChecker(b)
	client := func(w *window, c int) { b.drillClient(w, streams[c], dc) }
	if err := b.measure(client); err != nil {
		return err
	}
	b.closeTopo()
	if err := b.checkScan(data.dir); err != nil {
		return err
	}
	if b.sharded {
		return b.compareWithLocal(data.dir, dc)
	}
	return nil
}

// compareWithLocal re-asks every distinct answered request of a sharded
// run of one in-process server over the same files and requires the
// identical body (edges, counts, totals; timing and trace fields aside).
// Two workers ask in parallel.
func (b *bench) compareWithLocal(dir string, dc *drillChecker) error {
	srv := newServer()
	defer srv.Close()
	if err := srv.AddDataset(dsName, dir); err != nil {
		return err
	}
	paths := make([]string, 0, len(dc.answers))
	for path := range dc.answers {
		paths = append(paths, path)
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(paths) && errs[w] == nil; i += len(errs) {
				errs[w] = b.compareOne(srv, paths[i], dc.answers[paths[i]])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	b.logf("compared %d distinct sharded answers with the one-process server", len(dc.answers))
	return nil
}

// compareOne asks the one-process server for path and records a mismatch
// if its body differs from the sharded answer a.
func (b *bench) compareOne(srv *serve.Server, path string, a answer) error {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		b.mismatch("%s: local reference answered %d", path, rec.Code)
		return nil
	}
	var d string
	if a.op == "count" {
		rows, matches, err := countOf(rec.Body.Bytes())
		if err != nil {
			return err
		}
		d = fmt.Sprintf("%d/%d", matches, rows)
	} else {
		var err error
		if d, _, err = histDigest(rec.Body.Bytes()); err != nil {
			return err
		}
	}
	if d != a.digest {
		b.mismatch("%s: sharded body %s differs from one-process body %s", path, a.digest, d)
	}
	return nil
}
