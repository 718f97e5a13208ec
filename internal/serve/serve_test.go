package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fastbit"
	"repro/internal/sim"
)

// sharedDataset generates one small dataset for all tests in the package.
var (
	datasetOnce sync.Once
	datasetDir  string
	datasetErr  error
)

func testDataDir(t testing.TB) string {
	t.Helper()
	datasetOnce.Do(func() {
		dir, err := os.MkdirTemp("", "serve-test-*")
		if err != nil {
			datasetErr = err
			return
		}
		cfg := sim.DefaultConfig()
		cfg.Steps = 4
		cfg.BackgroundPerStep = 3000
		cfg.BeamParticles = 60
		_, datasetErr = sim.WriteDataset(dir, cfg, sim.WriteOptions{
			Index: fastbit.IndexOptions{Bins: 64},
		})
		datasetDir = dir
	})
	if datasetErr != nil {
		t.Fatal(datasetErr)
	}
	return datasetDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if datasetDir != "" {
		os.RemoveAll(datasetDir)
	}
	os.Exit(code)
}

func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.AddDataset("lwfa", testDataDir(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// get fetches path and decodes the JSON body into out, returning the
// status code and raw body.
func get(t *testing.T, ts *httptest.Server, path string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: decode %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestMetadataEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})

	var dss []DatasetInfo
	if code, body := get(t, ts, "/v1/datasets", &dss); code != 200 {
		t.Fatalf("datasets: %d %s", code, body)
	}
	if len(dss) != 1 || dss[0].Name != "lwfa" || dss[0].Steps != 4 {
		t.Fatalf("datasets body: %+v", dss)
	}

	var steps StepsBody
	if code, body := get(t, ts, "/v1/steps?dataset=lwfa&detail=1", &steps); code != 200 {
		t.Fatalf("steps: %d %s", code, body)
	}
	if steps.Steps != 4 || len(steps.Detail) != 4 || !steps.Detail[0].Indexed || steps.Detail[0].Rows == 0 {
		t.Fatalf("steps body: %+v", steps)
	}

	var vars VarsBody
	if code, body := get(t, ts, "/v1/vars?dataset=lwfa&step=3", &vars); code != 200 {
		t.Fatalf("vars: %d %s", code, body)
	}
	found := false
	for _, v := range vars.Vars {
		if v.Name == "px" && v.Max > v.Min {
			found = true
		}
	}
	if !found {
		t.Fatalf("vars body missing px range: %+v", vars)
	}
}

// TestHandlerErrors is the table-driven error-path test: bad query → 400
// with a parse position, unknown var → 404, unknown dataset → 404, bad
// params → 400.
func TestHandlerErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name     string
		path     string
		wantCode int
		wantSub  string
	}{
		{"bad query syntax", "/v1/query?q=" + url.QueryEscape("px >> 1"), 400, "position"},
		{"bad query trailing", "/v1/query?q=" + url.QueryEscape("px > 1 &&"), 400, "position"},
		{"missing query", "/v1/query", 400, "missing q"},
		{"unknown query var", "/v1/query?q=" + url.QueryEscape("nosuch > 1"), 404, "unknown variable"},
		{"unknown dataset", "/v1/query?dataset=nope&q=" + url.QueryEscape("px > 1"), 404, "unknown dataset"},
		{"step out of range", "/v1/query?step=99&q=" + url.QueryEscape("px > 1"), 404, "out of range"},
		{"bad step", "/v1/query?step=zz&q=" + url.QueryEscape("px > 1"), 400, "bad step"},
		{"bad backend", "/v1/query?backend=gpu&q=" + url.QueryEscape("px > 1"), 400, "unknown backend"},
		{"unknown hist var", "/v1/hist1d?var=nosuch", 404, "unknown variable"},
		{"missing hist var", "/v1/hist1d", 400, "missing variable"},
		{"bins out of range", "/v1/hist2d?x=x&y=px&xbins=100000", 400, "out of range"},
		{"bad binning", "/v1/hist2d?x=x&y=px&binning=magic", 400, "unknown binning"},
		{"bad range", "/v1/hist2d?x=x&y=px&xlo=abc", 400, "bad xlo"},
		{"unknown hist2d var", "/v1/hist2d?x=x&y=nosuch", 404, "unknown variable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorBody
			code, body := get(t, ts, tc.path, &e)
			if code != tc.wantCode {
				t.Fatalf("GET %s = %d (%s), want %d", tc.path, code, body, tc.wantCode)
			}
			if !strings.Contains(e.Error, tc.wantSub) {
				t.Fatalf("GET %s error %q missing %q", tc.path, e.Error, tc.wantSub)
			}
		})
	}
}

// TestDuplicateStepsRejected: a steps list naming a step twice is a 400
// on both multi-step endpoints, so one request runs at most Steps() plans
// instead of one uncached plan per listed entry.
func TestDuplicateStepsRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	var created struct {
		ID string `json:"id"`
	}
	if code, raw, _ := sessPost(t, ts, "/v1/session", &created); code != 200 {
		t.Fatalf("create session: %d %s", code, raw)
	}
	if code, raw, _ := sessPost(t, ts, selectPath(created.ID, 1, "px > 0.05", ""), nil); code != 200 {
		t.Fatalf("select: %d %s", code, raw)
	}
	track := "/v1/session/" + created.ID + "/track?steps="
	for _, steps := range []string{"0,0", "1,2,1", "3,%200,3"} {
		var e ErrorBody
		path := "/v1/sweep2d?x=x&y=px&xbins=8&ybins=8&steps=" + steps
		if code, raw := get(t, ts, path, &e); code != 400 || !strings.Contains(e.Error, "listed twice") {
			t.Fatalf("GET %s = %d %s, want 400 listed twice", path, code, raw)
		}
		if code, raw, _ := sessPost(t, ts, track+steps, nil); code != 400 || !strings.Contains(raw, "listed twice") {
			t.Fatalf("POST %s = %d %s, want 400 listed twice", track+steps, code, raw)
		}
	}
	// Distinct lists and ranges still run.
	var sweep Sweep2DBody
	if code, raw := get(t, ts, "/v1/sweep2d?x=x&y=px&xbins=8&ybins=8&steps=2,0", &sweep); code != 200 || len(sweep.Steps) != 2 {
		t.Fatalf("distinct sweep: %d %s", code, raw)
	}
	var tr SessionTrackBody
	if code, raw, _ := sessPost(t, ts, track+"0-2", &tr); code != 200 || len(tr.Steps) != 3 {
		t.Fatalf("range track: %d %s", code, raw)
	}
}

// TestBackendsAgree drives the drill-down loop over HTTP and checks the
// fastbit and scan backends return identical results.
func TestBackendsAgree(t *testing.T) {
	_, ts := testServer(t, Config{})
	const q = "px > 1e9 && y > -1e-3"

	var fb, sc QueryBody
	if code, body := get(t, ts, "/v1/query?backend=fastbit&q="+url.QueryEscape(q), &fb); code != 200 {
		t.Fatalf("query fastbit: %d %s", code, body)
	}
	if code, body := get(t, ts, "/v1/query?backend=scan&q="+url.QueryEscape(q), &sc); code != 200 {
		t.Fatalf("query scan: %d %s", code, body)
	}
	if fb.Matches == 0 || fb.Matches != sc.Matches {
		t.Fatalf("matches: fastbit %d, scan %d", fb.Matches, sc.Matches)
	}
	if fb.Plan != sc.Plan || fb.Plan == "" {
		t.Fatalf("plans differ: %q vs %q", fb.Plan, sc.Plan)
	}

	for _, binning := range []string{"uniform", "adaptive"} {
		path := "/v1/hist2d?x=x&y=px&xbins=16&ybins=16&binning=" + binning + "&q=" + url.QueryEscape(q)
		var hfb, hsc Hist2DBody
		if code, body := get(t, ts, path+"&backend=fastbit", &hfb); code != 200 {
			t.Fatalf("hist2d fastbit %s: %d %s", binning, code, body)
		}
		if code, body := get(t, ts, path+"&backend=scan", &hsc); code != 200 {
			t.Fatalf("hist2d scan %s: %d %s", binning, code, body)
		}
		if !reflect.DeepEqual(hfb.Counts, hsc.Counts) || !reflect.DeepEqual(hfb.XEdges, hsc.XEdges) {
			t.Fatalf("%s: backends disagree", binning)
		}
		if hfb.Total != fb.Matches {
			t.Fatalf("%s: histogram total %d != selection %d", binning, hfb.Total, fb.Matches)
		}
	}

	var h1fb, h1sc Hist1DBody
	p1 := "/v1/hist1d?var=px&bins=32&q=" + url.QueryEscape(q)
	if code, body := get(t, ts, p1+"&backend=fastbit", &h1fb); code != 200 {
		t.Fatalf("hist1d fastbit: %d %s", code, body)
	}
	if code, body := get(t, ts, p1+"&backend=scan", &h1sc); code != 200 {
		t.Fatalf("hist1d scan: %d %s", code, body)
	}
	if !reflect.DeepEqual(h1fb.Counts, h1sc.Counts) {
		t.Fatal("hist1d backends disagree")
	}
}

// TestPlanCache proves: (1) repeated identical requests are served from
// cache — the hit counter advances while the backend call count does not;
// (2) a semantically equivalent but differently written query hits the
// same entry through plan canonicalization.
func TestPlanCache(t *testing.T) {
	s, ts := testServer(t, Config{})
	const path = "/v1/hist2d?x=x&y=px&xbins=8&ybins=8&q="
	q1 := url.QueryEscape("px > 1e9 && y > -1e-3")
	q2 := url.QueryEscape("y > -1e-3 && px > 1e9") // reordered operands

	var first Hist2DBody
	if code, body := get(t, ts, path+q1, &first); code != 200 {
		t.Fatalf("first: %d %s", code, body)
	}
	if first.Outcome != "computed" {
		t.Fatalf("first outcome %q", first.Outcome)
	}
	calls := s.BackendCalls()
	hits := s.cache.Stats().Hits

	for i, q := range []string{q1, q2, q1} {
		var h Hist2DBody
		if code, body := get(t, ts, path+q, &h); code != 200 {
			t.Fatalf("repeat %d: %d %s", i, code, body)
		}
		if h.Outcome != "hit" {
			t.Fatalf("repeat %d outcome %q, want hit", i, h.Outcome)
		}
		if !reflect.DeepEqual(h.Counts, first.Counts) {
			t.Fatalf("repeat %d: counts differ", i)
		}
	}
	if got := s.BackendCalls(); got != calls {
		t.Fatalf("backend calls advanced %d -> %d on cached requests", calls, got)
	}
	if got := s.cache.Stats().Hits; got != hits+3 {
		t.Fatalf("hits %d -> %d, want +3", hits, got)
	}
}

// TestServerCoalescing fires identical concurrent requests and checks the
// backend ran at most once for all of them.
func TestServerCoalescing(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 16})
	path := "/v1/hist2d?x=x&y=px&xbins=64&ybins=64&q=" + url.QueryEscape("px > 5e8")
	before := s.BackendCalls()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != 200 {
			t.Fatalf("request %d: %d", i, code)
		}
	}
	if got := s.BackendCalls() - before; got != 1 {
		t.Fatalf("backend ran %d times for %d identical concurrent requests", got, n)
	}
}

// TestOverload fills the admission gate and checks new arrivals are shed
// with 429 + Retry-After, and queued arrivals get 503 after the deadline.
func TestOverload(t *testing.T) {
	s, ts := testServer(t, Config{Concurrency: 1, QueueDepth: 1, QueueTimeout: 30 * time.Millisecond})

	// Occupy the only slot directly.
	if err := s.gate.Acquire(context.Background(), ClassDrill); err != nil {
		t.Fatal(err)
	}
	defer s.gate.Release(0)

	// First arrival queues and should 503 after the deadline.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/query?q=" + url.QueryEscape("px > 1"))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("queued request: %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("queued 503 missing Retry-After")
		}
	}()

	// Wait for it to take the queue slot, then a second arrival must be
	// shed immediately with 429.
	deadline := time.Now().Add(time.Second)
	for s.gate.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/query?q=" + url.QueryEscape("px > 1"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	<-done

	// Metadata endpoints bypass admission control and still answer.
	var dss []DatasetInfo
	if code, body := get(t, ts, "/v1/datasets", &dss); code != 200 {
		t.Fatalf("datasets under overload: %d %s", code, body)
	}

	var stats StatsBody
	if code, _ := get(t, ts, "/v1/stats", &stats); code != 200 {
		t.Fatal("stats failed")
	}
	if stats.Admission.RejectedFull == 0 || stats.Admission.RejectedDeadline == 0 {
		t.Fatalf("admission stats %+v", stats.Admission)
	}
}

// TestDefaultDatasetAndStep checks the single-dataset convenience default
// and the default (last) step.
func TestDefaultDatasetAndStep(t *testing.T) {
	_, ts := testServer(t, Config{})
	var qb QueryBody
	if code, body := get(t, ts, "/v1/query?q="+url.QueryEscape("px > 1e9"), &qb); code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	if qb.Dataset != "lwfa" || qb.Step != 3 {
		t.Fatalf("defaults: %+v", qb)
	}
}

// TestScanOnlyFallback: a request for fastbit on an unindexed dataset is
// rejected, while the default backend falls back to scan.
func TestScanOnlyFallback(t *testing.T) {
	dir, err := os.MkdirTemp("", "serve-noidx-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := sim.DefaultConfig()
	cfg.Steps = 2
	cfg.BackgroundPerStep = 500
	cfg.BeamParticles = 20
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddDataset("noidx", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var e ErrorBody
	code, _ := get(t, ts, "/v1/query?backend=fastbit&q="+url.QueryEscape("px > 1e9"), &e)
	if code != 400 || !strings.Contains(e.Error, "no index") {
		t.Fatalf("fastbit on unindexed: %d %q", code, e.Error)
	}
	var qb QueryBody
	if code, body := get(t, ts, "/v1/query?q="+url.QueryEscape("px > 1e9"), &qb); code != 200 {
		t.Fatalf("default backend: %d %s", code, body)
	}
	if qb.Backend != "custom" {
		t.Fatalf("backend %q, want custom (scan)", qb.Backend)
	}
}

// TestStatsEndpointShape sanity-checks counter plumbing end to end.
func TestConfigDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	if d.CacheEntries != 256 || d.Concurrency != 8 || d.QueueDepth != 16 || d.QueueTimeout != 2*time.Second {
		t.Fatalf("zero-value defaults: %+v", d)
	}
	off := Config{CacheEntries: -1, QueueDepth: -1}.withDefaults()
	if off.CacheEntries >= 0 {
		t.Fatalf("CacheEntries -1 should stay negative (storage off), got %d", off.CacheEntries)
	}
	if off.QueueDepth != 0 {
		t.Fatalf("QueueDepth -1 should become 0 (no queue), got %d", off.QueueDepth)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, ts := testServer(t, Config{})
	get(t, ts, "/v1/query?q="+url.QueryEscape("px > 2e9"), nil)
	get(t, ts, "/v1/query?q="+url.QueryEscape("px > 2e9"), nil)
	var st StatsBody
	if code, body := get(t, ts, "/v1/stats", &st); code != 200 {
		t.Fatalf("stats: %d %s", code, body)
	}
	if st.Cache.Misses == 0 || st.Cache.Hits == 0 || st.BackendCalls == 0 || st.Admission.Admitted == 0 {
		t.Fatalf("stats body: %+v", st)
	}
}
