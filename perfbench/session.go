package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"repro/internal/serve"
	"repro/internal/session"
)

// sessSpec is one distinct analysis-session loop.
type sessSpec struct {
	step int
	sel  float64 // brush selectivity, 1e-3 … 0.3
	fx1  float64 // refine 1 (and):    x > q(fx1)
	fy1  float64 // refine 2 (andnot): py > q(fy1)
	fo   float64 // refine 3 (or):     px > q(sel·fo)
	fx2  float64 // refine 4 (and):    x > q(fx2)
	fy2  float64 // refine 5 (andnot): py > q(fy2)
}

// makeSessions draws the distinct session loops of a seed. As in the
// drill pool, loop i is the k-th loop of client c: the brush selectivity
// walks its strata (log-spaced over 1e-3 … 0.3) and the step cycles with
// k, so every run sees the same spread of selection sizes and steps.
func makeSessions(seed uint64, n, steps int) []sessSpec {
	r := rand.New(rand.NewPCG(seed, 0x5e))
	out := make([]sessSpec, n)
	for i := range out {
		k, c := i/clients, i%clients
		out[i] = sessSpec{
			step: (k + 3*c + k/strata) % steps,
			sel:  stratified(r, k+4*c, 1e-3, 0.3),
			fx1:  0.5 + 0.4*r.Float64(),
			fy1:  0.05 + 0.25*r.Float64(),
			fo:   0.2 + 0.3*r.Float64(),
			fx2:  0.5 + 0.4*r.Float64(),
			fy2:  0.05 + 0.25*r.Float64(),
		}
	}
	return out
}

// sessOp is one request of a session loop. Paths carry "{sid}" where the
// session id goes.
type sessOp struct {
	op, method, path string
	key              string // scan-gate key for counts, histograms and the brush select
}

func (s sessSpec) brush(q quantiles) string { return "px > " + fmtF(q.above("px", s.sel)) }

// probe is a candidate brush k times wider than the chosen one.
func (s sessSpec) probe(q quantiles, k float64) string {
	return "px > " + fmtF(q.above("px", min(k*s.sel, 0.5)))
}

// ops lays out the loop: three count probes narrowing to the brush, 64²
// and 256² context views, brush, five refinements alternating
// and/andnot/or, track across all steps, JSON views, one PNG temporal
// parallel-coordinates view (3 axes), delete.
func (s sessSpec) ops(q quantiles) []sessOp {
	t := s.step
	brush := s.brush(q)
	sel := func(pred, mode string) string {
		p := fmt.Sprintf("/v1/session/{sid}/select?name=brush&dataset=%s&step=%d&q=%s", dsName, t, esc(pred))
		if mode != "" {
			p += "&refine=" + mode
		}
		return p
	}
	refines := []struct{ pred, mode string }{
		{"x > " + fmtF(q.above("x", s.fx1)), "and"},
		{"py > " + fmtF(q.above("py", s.fy1)), "andnot"},
		{"px > " + fmtF(q.above("px", s.sel*s.fo)), "or"},
		{"x > " + fmtF(q.above("x", s.fx2)), "and"},
		{"py > " + fmtF(q.above("py", s.fy2)), "andnot"},
	}
	count := func(pred string) sessOp {
		return sessOp{op: "count", method: http.MethodGet, key: scanKey(t, pred),
			path: fmt.Sprintf("/v1/query?dataset=%s&step=%d&q=%s", dsName, t, esc(pred))}
	}
	ops := []sessOp{
		{op: "create", method: http.MethodPost, path: "/v1/session"},
		count(s.probe(q, 4)), count(s.probe(q, 2)), count(brush),
		{op: "hist2d", method: http.MethodGet, key: scanKey(t, brush), path: histPath(t, brush, 64, false, false)},
		{op: "hist2d", method: http.MethodGet, key: scanKey(t, brush), path: histPath(t, brush, 256, false, false)},
		{op: "select", method: http.MethodPost, key: scanKey(t, brush), path: sel(brush, "")},
	}
	for _, r := range refines {
		ops = append(ops, sessOp{op: "select", method: http.MethodPost, path: sel(r.pred, r.mode)})
	}
	views := "/v1/session/{sid}/views?name=brush&vars=x,px,py&bins=32"
	return append(ops,
		sessOp{op: "track", method: http.MethodPost, path: "/v1/session/{sid}/track?name=brush"},
		sessOp{op: "views", method: http.MethodGet, path: views},
		sessOp{op: "render", method: http.MethodGet, path: views + "&format=png"},
		sessOp{op: "delete", method: http.MethodDelete, path: "/v1/session/{sid}"},
	)
}

// sessDigest reduces a session response to its topology-independent
// content: answers, canonical expressions, tracked ID sets and pixels.
func sessDigest(op string, body []byte) (string, uint64, error) {
	switch op {
	case "count":
		rows, matches, err := countOf(body)
		return fmt.Sprintf("%d/%d", matches, rows), matches, err
	case "hist2d":
		return histDigest(body)
	case "select":
		var sb serve.SessionSelectBody
		if err := json.Unmarshal(body, &sb); err != nil {
			return "", 0, err
		}
		if !sb.Stored || sb.Partial {
			return "", 0, fmt.Errorf("selection not stored (partial %v)", sb.Partial)
		}
		return digest([]byte(fmt.Sprintf("%d|%d|%s", sb.Matches, sb.Rows, sb.Expr))), sb.Matches, nil
	case "track":
		var tb serve.SessionTrackBody
		if err := json.Unmarshal(body, &tb); err != nil {
			return "", 0, err
		}
		if !tb.Stored || tb.Partial {
			return "", 0, fmt.Errorf("track not stored (partial %v)", tb.Partial)
		}
		return digest([]byte(fmt.Sprintf("%d|%s|%v|%v", tb.IDs, tb.Expr, tb.Steps, tb.Counts))), uint64(tb.IDs), nil
	case "views":
		var vb serve.SessionViewsBody
		if err := json.Unmarshal(body, &vb); err != nil {
			return "", 0, err
		}
		raw, err := json.Marshal([]any{vb.Expr, vb.Steps, vb.Panels})
		return digest(raw), 0, err
	case "render":
		if !strings.HasPrefix(string(body[:min(len(body), 8)]), "\x89PNG") {
			return "", 0, fmt.Errorf("not a PNG")
		}
		return digest(body), 0, nil
	}
	return "", 0, nil
}

// sessRecord is one executed session loop: its ops and answer digests in
// order, replayed on one process afterwards.
type sessRecord struct {
	ops     []sessOp
	digests []string
}

// sessionClient runs whole session loops while the window is open. A
// loop cut by the deadline is abandoned (its session deleted, untimed).
func (b *bench) sessionClient(w *window, c int, specs []sessSpec, tabs []quantiles, mu *sync.Mutex, records *[]sessRecord) {
	for i := c; w.open(); i += clients {
		spec := specs[i%len(specs)]
		rec := sessRecord{}
		sid, deleted := "", false
		for _, op := range spec.ops(tabs[spec.step]) {
			if !w.open() {
				break
			}
			path := strings.ReplaceAll(op.path, "{sid}", sid)
			body := w.timed(b.topo.http, op.op, op.method, path, nil)
			if body == nil {
				break
			}
			if op.op == "create" {
				var info session.Info
				if err := json.Unmarshal(body, &info); err != nil {
					b.mismatch("create session: %v", err)
					break
				}
				sid = info.ID
				continue
			}
			if op.op == "delete" {
				deleted = true
				continue
			}
			d, v, err := sessDigest(op.op, body)
			if err != nil {
				b.mismatch("%s %s: %v", op.op, path, err)
				break
			}
			if op.key != "" && w.traced {
				w.noteKey(op.key)
			}
			if op.key != "" {
				b.claimScan(op.key, op.op+" "+path, v)
			}
			if w.traced && op.op == "select" {
				w.noteSelection(body)
			}
			rec.ops = append(rec.ops, op)
			rec.digests = append(rec.digests, d)
		}
		if sid != "" && !deleted {
			b.topo.http.do(http.MethodDelete, "/v1/session/"+sid, nil)
		}
		mu.Lock()
		*records = append(*records, rec)
		mu.Unlock()
	}
}

// runSession is session_sharded.
func runSession(b *bench) error {
	data, err := b.prepareStatic()
	if err != nil {
		return err
	}
	specs := makeSessions(b.opt.seed, b.shape.SessionLoops, data.steps)
	b.logf("dataset %s: %d steps × %d rows, %d data bytes; %d distinct session loops",
		data.dir, data.steps, data.rows[0], data.bytes, len(specs))
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
	var mu sync.Mutex
	var records []sessRecord
	client := func(w *window, c int) { b.sessionClient(w, c, specs, data.tabs, &mu, &records) }
	if err := b.measure(client); err != nil {
		return err
	}
	b.closeTopo()
	if err := b.checkScan(data.dir); err != nil {
		return err
	}
	return b.replaySessions(data.dir, records)
}

// replaySessions replays every recorded session loop on one in-process
// server over the same files and requires identical answers: the same
// matches and canonical expressions, the same tracked ID sets, the same
// panels, and — on every fourth loop, to bound the replay's cost — the
// same pixels.
func (b *bench) replaySessions(dir string, records []sessRecord) error {
	srv := newServer()
	defer srv.Close()
	if err := srv.AddDataset(dsName, dir); err != nil {
		return err
	}
	do := func(method, path string) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code, rec.Body.Bytes()
	}
	ops := 0
	for li, r := range records {
		code, body := do(http.MethodPost, "/v1/session")
		var info session.Info
		if code != http.StatusOK || json.Unmarshal(body, &info) != nil {
			return fmt.Errorf("replay: create session: %d", code)
		}
		for i, op := range r.ops {
			if op.op == "render" && li%4 != 0 {
				continue // pixels are compared on every fourth loop
			}
			path := strings.ReplaceAll(op.path, "{sid}", info.ID)
			code, body := do(op.method, path)
			if code != http.StatusOK {
				b.mismatch("replay %s: one-process server answered %d", path, code)
				break
			}
			d, _, err := sessDigest(op.op, body)
			if err != nil {
				b.mismatch("replay %s: %v", path, err)
				break
			}
			if d != r.digests[i] {
				b.mismatch("%s %s: sharded answer %s differs from one-process answer %s", op.op, path, r.digests[i], d)
			}
			ops++
		}
		do(http.MethodDelete, "/v1/session/"+info.ID)
	}
	b.logf("replayed %d session loops (%d answers) on the one-process server", len(records), ops)
	return nil
}
