package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

func esc(s string) string { return url.QueryEscape(s) }

// httpClient issues requests to one topology over loopback keep-alive
// connections.
type httpClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	return &httpClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (h *httpClient) close() { h.tr.CloseIdleConnections() }

// do sends one request and reads the whole body.
func (h *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (h *httpClient) getOK(path string) ([]byte, error) {
	code, data, err := h.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(data))
	}
	return data, nil
}

// sample is one timed request of a measured window.
type sample struct {
	op    string
	lat   time.Duration
	end   time.Duration // since the window started
	bytes int
	ok    bool
}

// window is one measured pass: closed-loop clients record samples until
// the deadline; a sampler tracks the peak memory and, at every slice
// boundary, the host's CPU steal while it runs.
type window struct {
	b        *bench
	start    time.Time
	deadline time.Time
	traced   bool

	mu      sync.Mutex
	samples []sample

	notes traceNotes

	peak atomic.Uint64
	// ticks[i] is the /proc/stat snapshot at the start of slice i (and
	// ticks[slices] at the end of the window); nil where it is unreadable.
	ticks []cpuTicks
	stop  chan struct{}
	done  chan struct{}
}

func (b *bench) newWindow(d time.Duration, traced bool) *window {
	w := &window{b: b, start: time.Now(), traced: traced,
		stop: make(chan struct{}), done: make(chan struct{})}
	w.deadline = w.start.Add(d)
	go w.sample()
	return w
}

// slices is the number of equal slices of the window: one per second,
// and at least 5.
func (w *window) slices() int {
	return max(int(w.deadline.Sub(w.start)/sliceLen), 5)
}

func (w *window) open() bool { return time.Now().Before(w.deadline) }

// timed sends one request of the workload, records its latency, and
// returns the body of a successful response (nil otherwise). A request
// that fails or is shed counts as failed.
func (w *window) timed(h *httpClient, op, method, path string, body []byte) []byte {
	if w.traced {
		path = withExplain(path)
	}
	t0 := time.Now()
	var span int
	if w.traced {
		span = w.b.tracer.begin("http."+op, 0)
	}
	code, data, err := h.do(method, path, body)
	lat := time.Since(t0)
	if span != 0 {
		w.b.tracer.end(span)
	}
	ok := err == nil && code == http.StatusOK
	w.mu.Lock()
	w.samples = append(w.samples, sample{op: op, lat: lat, end: time.Since(w.start), bytes: len(data), ok: ok})
	w.mu.Unlock()
	w.b.mu.Lock()
	w.b.attempted++
	if !ok {
		w.b.failed++
		if w.b.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d %v %.200s\n", method, path, code, err, data)
		}
	}
	w.b.mu.Unlock()
	if !ok {
		return nil
	}
	w.noteBody(op, data)
	return data
}

// withExplain asks for the execution profile on endpoints that have one.
func withExplain(path string) string {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + "debug=explain"
}

// memInUse is the Go runtime's mapped memory not yet returned to the OS.
func memInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func (w *window) sample() {
	defer close(w.done)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	n := w.slices()
	span := w.deadline.Sub(w.start)
	t0, ok := readTicks()
	if ok {
		w.ticks = append(w.ticks, t0)
	}
	for {
		if m := memInUse(); m > w.peak.Load() {
			w.peak.Store(m)
		}
		if ok && len(w.ticks) < n {
			if since := time.Since(w.start); since >= span*time.Duration(len(w.ticks))/time.Duration(n) {
				t, _ := readTicks()
				w.ticks = append(w.ticks, t)
			}
		}
		select {
		case <-w.stop:
			if ok {
				t, _ := readTicks()
				for len(w.ticks) <= n {
					w.ticks = append(w.ticks, t)
				}
			}
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and returns the samples.
func (w *window) finish() []sample {
	close(w.stop)
	<-w.done
	return w.samples
}

// cpuTicks is the machine-wide CPU time of /proc/stat: all ticks, and the
// ticks the hypervisor ran something else while a vCPU wanted to run.
type cpuTicks struct{ total, steal uint64 }

func readTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// quietSteal is the share of CPU time the host may steal in a slice for
// the slice to count as quiet.
const quietSteal = 0.05

// quietSlices marks the slices the timing metrics are taken over: those
// in which the host stole at most quietSteal of the CPU time, or, when
// fewer than a third were that quiet, the third with the least steal.
// Without /proc/stat every slice counts.
func (w *window) quietSlices() (quiet []bool, steal float64) {
	n := w.slices()
	quiet = make([]bool, n)
	if len(w.ticks) != n+1 {
		for i := range quiet {
			quiet[i] = true
		}
		return quiet, 0
	}
	frac := make([]float64, n)
	order := make([]int, n)
	for i := range frac {
		a, b := w.ticks[i], w.ticks[i+1]
		frac[i] = float64(b.steal-a.steal) / float64(max(b.total-a.total, 1))
		order[i] = i
	}
	all := float64(w.ticks[n].steal-w.ticks[0].steal) / float64(max(w.ticks[n].total-w.ticks[0].total, 1))
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] < frac[order[j]] })
	want := (n + 2) / 3
	for k, i := range order {
		if k < want || frac[i] <= quietSteal {
			quiet[i] = true
		}
	}
	return quiet, all
}

// runClients runs fn on n goroutines (client index 0..n-1) and waits.
func runClients(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

const clients = 2

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func latencies(ss []sample, ops ...string) []float64 {
	var out []float64
	for _, s := range ss {
		if !s.ok {
			continue
		}
		if len(ops) == 0 {
			out = append(out, ms(s.lat))
			continue
		}
		for _, op := range ops {
			if s.op == op {
				out = append(out, ms(s.lat))
				break
			}
		}
	}
	return out
}

// sliceLen is the length of the slices of a window the p50s and the
// throughput are taken over: each is the median of the per-slice values
// over the quiet slices (see quietSlices), so a spell in which the host
// takes the vCPUs away does not move it.
const sliceLen = time.Second

// recordE2E turns a window's samples into the end-to-end metrics.
func (b *bench) recordE2E(w *window, ss []sample) {
	span := w.deadline.Sub(w.start)
	n := w.slices()
	slice := func(at time.Duration) int {
		return min(max(int(float64(at)/float64(span)*float64(n)), 0), n-1)
	}
	quiet, steal := w.quietSlices()
	byStart := make([][]sample, n)
	done := make([]float64, n)
	for _, s := range ss {
		byStart[slice(s.end-s.lat)] = append(byStart[slice(s.end-s.lat)], s)
		if s.ok && s.end < span {
			done[slice(s.end)]++
		}
	}
	subMedian := func(ops ...string) (float64, int) {
		var meds []float64
		n := 0
		for i, part := range byStart {
			if !quiet[i] {
				continue
			}
			if xs := latencies(part, ops...); len(xs) > 0 {
				meds = append(meds, median(xs))
				n += len(xs)
			}
		}
		return median(meds), n
	}
	all := latencies(ss)
	var rates []float64
	nq := 0
	for i, d := range done {
		if quiet[i] {
			rates = append(rates, d/(span.Seconds()/float64(n)))
			nq++
		}
	}
	b.logf("timing over %d of %d slices (host steal: %.1f%% of the window's CPU time)", nq, n, 100*steal)
	b.metric("throughput_rps", median(rates), len(all))
	v, nv := subMedian()
	b.metric("latency_p50_ms", v, nv)
	b.metric("latency_p95_ms", percentile(all, 95), len(all))
	b.metric("rss_peak_mb", float64(w.peak.Load())/(1<<20), 1)
	for _, m := range []struct{ name, op string }{
		{"count_p50_ms", "count"}, {"hist2d_p50_ms", "hist2d"},
		{"select_p50_ms", "select"}, {"track_p50_ms", "track"},
		{"views_p50_ms", "views"}, {"render_p50_ms", "render"},
		{"ingest_p50_ms", "ingest"},
	} {
		if v, n := subMedian(m.op); n > 0 {
			b.metric(m.name, v, n)
		}
	}
	if xs := latencies(ss, "hist2d"); len(xs) >= 200 {
		b.metric("hist2d_p95_ms", percentile(xs, 95), len(xs))
	}
}

// Answer extraction. Bodies are not fully decoded on the hot path — a
// 1024² histogram is megabytes of JSON — but the comparable span of a
// histogram body (edges, counts and total, which precede the outcome and
// timing fields in the serve body types) is hashed as sent.

// histDigest returns the hash of a hist2d body's edges+counts+total span
// and the total.
func histDigest(body []byte) (string, uint64, error) {
	i := bytes.Index(body, []byte(`"xedges":`))
	j := bytes.Index(body, []byte(`,"outcome":`))
	if i < 0 || j < i {
		return "", 0, fmt.Errorf("not a hist2d body: %.120s", body)
	}
	span := body[i:j]
	k := bytes.LastIndex(span, []byte(`"total":`))
	if k < 0 {
		return "", 0, fmt.Errorf("hist2d body without total")
	}
	total, err := strconv.ParseUint(string(span[k+len(`"total":`):]), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("hist2d total: %v", err)
	}
	sum := sha256.Sum256(span)
	return hex.EncodeToString(sum[:12]), total, nil
}

// countOf decodes a /v1/query body.
func countOf(body []byte) (rows, matches uint64, err error) {
	var qb serve.QueryBody
	if err := json.Unmarshal(body, &qb); err != nil {
		return 0, 0, err
	}
	return qb.Rows, qb.Matches, nil
}

// explainOf decodes the explain profile at the end of a body, or nil.
func explainOf(body []byte) *serve.ExplainBody {
	i := bytes.LastIndex(body, []byte(`"explain":`))
	if i < 0 {
		return nil
	}
	var eb serve.ExplainBody
	if err := json.NewDecoder(bytes.NewReader(body[i+len(`"explain":`):])).Decode(&eb); err != nil {
		return nil
	}
	return &eb
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:12])
}
