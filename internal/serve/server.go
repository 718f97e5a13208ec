package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/shard"
)

// Limits on requested histogram resolution; beyond them a request is
// rejected with 400 rather than allocating unbounded bin arrays.
const (
	MaxBins1D = 1 << 20
	MaxBins2D = 4096 // per axis
)

// Config parameterises a Server. Zero values take the documented
// defaults; pass a negative value to turn a bounded feature off
// entirely.
type Config struct {
	// CacheEntries bounds the result cache. 0 means the default (256);
	// negative disables storage (coalescing still applies).
	CacheEntries int
	// Concurrency is the number of requests allowed to run backend work
	// at once. Default 8.
	Concurrency int
	// QueueDepth is the number of requests allowed to wait for a slot
	// before new arrivals are shed with 429. 0 means the default
	// (2x Concurrency); negative means no queue at all.
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits before 503.
	// Default 2s.
	QueueTimeout time.Duration
	// ExecTimeout bounds backend execution per request; expiry cancels the
	// in-flight work (cooperatively, at the backends' row checkpoints) and
	// returns 504. 0 means the default (30s); negative disables the bound.
	ExecTimeout time.Duration
	// SlowThreshold is the latency beyond which a request is recorded in
	// the slow-query log and counted by serve_slow_queries_total. 0 means
	// the default (250ms); negative disables slow-query capture.
	SlowThreshold time.Duration
	// SlowLogEntries bounds the in-memory slow-query ring served at
	// /v1/debug/slow. 0 means the default (128).
	SlowLogEntries int
	// Logger receives the server's structured JSON-lines log output.
	// Nil means a logger writing to stderr.
	Logger *obs.Logger

	// LimitMode selects the admission limiter: "fixed" (default, the
	// static gate), "aimd", or "gradient" (self-tuning against SLO).
	LimitMode string
	// SLO is the latency target the adaptive limiter steers the windowed
	// p95 toward. 0 means the gate default (250ms).
	SLO time.Duration
	// MaxConcurrency caps adaptive limit growth. 0 means 8× Concurrency.
	MaxConcurrency int
	// AdjustEvery is the limiter's minimum adjustment interval. 0 means
	// the gate default (250ms).
	AdjustEvery time.Duration
	// Brownout enables degraded histogram answers (coarser cached
	// resolution, or index-only approximation) under sustained pressure,
	// instead of shedding.
	Brownout bool

	// BurnBudget is the tolerated bad-request fraction for the SLO
	// burn-rate monitor (0 means the monitor default, 5%). A request is
	// "bad" when it returns a 5xx or takes longer than SLO.
	BurnBudget float64
	// BurnFast and BurnSlow are the multi-window burn-rate lookbacks.
	// Zero means the monitor defaults (5m / 1h).
	BurnFast, BurnSlow time.Duration
	// BurnThreshold is the burn rate both windows must reach to fire a
	// breach (0 means 1.0 — consuming budget exactly as fast as it
	// accrues).
	BurnThreshold float64
	// BurnCooldown is the minimum gap between breach firings (0 means
	// the slow window).
	BurnCooldown time.Duration

	// ProfileDir, when set, arms the flight recorder: each SLO burn-rate
	// breach captures CPU + heap profiles and the slow-query ring into a
	// bounded spool of capture directories under this path.
	ProfileDir string
	// ProfileCaptures bounds the capture spool (0 means 8).
	ProfileCaptures int
	// ProfileCPU is the CPU-profile sampling window per capture (0 means
	// 2s).
	ProfileCPU time.Duration

	// SessionTTL evicts analysis sessions idle longer than this (0 means
	// 15m; negative disables TTL eviction).
	SessionTTL time.Duration
	// SessionMax bounds live analysis sessions, LRU-evicted (0 means 64;
	// negative unbounded).
	SessionMax int
	// SessionMaxBytes bounds total stored selection bytes across sessions
	// (0 means 64 MiB; negative unbounded).
	SessionMaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 2 * c.Concurrency
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	switch {
	case c.ExecTimeout == 0:
		c.ExecTimeout = 30 * time.Second
	case c.ExecTimeout < 0:
		c.ExecTimeout = 0
	}
	switch {
	case c.SlowThreshold == 0:
		c.SlowThreshold = 250 * time.Millisecond
	case c.SlowThreshold < 0:
		c.SlowThreshold = 0
	}
	if c.SlowLogEntries == 0 {
		c.SlowLogEntries = 128
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, "serve")
	}
	return c
}

// dataset is one served dataset: the open source plus a registry of open
// timesteps shared by all requests (Source and Step are safe for
// concurrent readers). A live dataset additionally carries the ingestion
// state (catalog, writer, builder, watcher) in live.
type dataset struct {
	name string
	src  *fastquery.Source
	live *liveState // nil for a static (read-only) dataset

	mu    sync.Mutex
	steps map[int]*stepHandle
	// retired holds step handles replaced by a hot upgrade (scan → fastbit
	// after the sidecar index landed). They may still be referenced by
	// in-flight queries, so they are closed only when the dataset closes.
	// Bounded: each step upgrades at most once per index publish.
	retired []*fastquery.Step
}

// stepHandle pairs an open step with the catalog generation it was opened
// at, so an index publish (which bumps the step's generation) triggers a
// reopen on the next access.
type stepHandle struct {
	st  *fastquery.Step
	gen uint64
}

// stepGen returns timestep t's current catalog generation — the value at
// its last state change (commit or index publish). Static datasets have
// no catalog; every step is generation 0 forever.
func (d *dataset) stepGen(t int) uint64 {
	if d.live == nil {
		return 0
	}
	man := d.live.man.Load()
	if man == nil || t < 0 || t >= len(man.Steps) {
		return 0
	}
	return man.Steps[t].Gen
}

// step returns the shared open handle for timestep t, opening it on first
// use. When the step's catalog generation has moved past the handle's (its
// index was published after the handle was opened), the handle is reopened
// so the fastbit backend becomes available; the old handle is retired, not
// closed, because concurrent requests may still be reading through it.
func (d *dataset) step(t int) (*fastquery.Step, error) {
	gen := d.stepGen(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.steps[t]; ok && h.gen >= gen {
		return h.st, nil
	}
	st, err := d.src.OpenStep(t)
	if err != nil {
		return nil, err
	}
	if h, ok := d.steps[t]; ok {
		d.retired = append(d.retired, h.st)
	}
	d.steps[t] = &stepHandle{st: st, gen: gen}
	return st, nil
}

func (d *dataset) close() {
	if d.live != nil {
		d.live.stopAll()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.steps {
		h.st.Close() //nolint:errcheck // read-only handles
	}
	for _, st := range d.retired {
		st.Close() //nolint:errcheck // read-only handles
	}
	d.steps = map[int]*stepHandle{}
	d.retired = nil
	d.src.Close() //nolint:errcheck // idempotent
}

// Server is the HTTP query service. Create with New, register datasets
// with AddDataset, then use it as an http.Handler.
type Server struct {
	cfg   Config
	cache *Cache
	gate  *Gate
	mux   *http.ServeMux

	reg      *obs.Registry
	metrics  *serverMetrics
	slowLog  *obs.SlowLog
	logger   *obs.Logger
	started  time.Time
	slo      time.Duration       // latency target the burn monitor judges against
	burn     *obs.BurnMonitor    // SLO burn-rate monitor fed by instrumented()
	flight   *obs.FlightRecorder // nil unless ProfileDir armed it
	sessions *session.Manager    // analysis sessions: named selections + tracks

	mu       sync.RWMutex
	datasets map[string]*dataset
	order    []string
	shard    *shard.Client // optional scatter client: this server is a frontend

	backendCalls     *obs.Counter
	canceled         *obs.Counter // requests abandoned by their client (499)
	execTimeouts     *obs.Counter // requests that hit ExecTimeout (504)
	panics           *obs.Counter // handler panics converted to 500
	probeBypass      *obs.Counter // cached-key probes answered without a gate slot
	scatters         *obs.Counter // operations executed through the scatter client
	scatterFrags     *obs.Counter // plan fragments dispatched to shard workers
	partials         *obs.Counter // responses merged without every shard
	explains         *obs.Counter // requests that asked for an execution profile
	federationErrors *obs.Counter // shard scrapes that failed during /metrics federation
	draining         atomic.Bool  // /readyz reports 503 while set

	// brownoutSem bounds concurrent index-only brownout rescues so the
	// degraded path cannot itself become the overload.
	brownoutSem chan struct{}
}

// New creates a Server with no datasets.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	mode, _ := ParseLimitMode(cfg.LimitMode) // unknown modes fall back to fixed
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheEntries),
		gate: NewGate(GateConfig{
			Limit:        cfg.Concurrency,
			MaxLimit:     cfg.MaxConcurrency,
			QueueDepth:   cfg.QueueDepth,
			QueueTimeout: cfg.QueueTimeout,
			Mode:         mode,
			SLO:          cfg.SLO,
			AdjustEvery:  cfg.AdjustEvery,
		}),
		mux:         http.NewServeMux(),
		reg:         reg,
		slowLog:     obs.NewSlowLog(cfg.SlowLogEntries),
		logger:      cfg.Logger,
		started:     time.Now(),
		datasets:    map[string]*dataset{},
		brownoutSem: make(chan struct{}, brownoutWorkers),
	}
	s.metrics = newServerMetrics(reg, s.cache, s.gate)
	s.backendCalls = reg.Counter("serve_backend_calls_total",
		"Backend evaluations run (cache misses that executed work).")
	s.canceled = reg.Counter("serve_canceled_total",
		"Requests abandoned by their client before completion (499).")
	s.execTimeouts = reg.Counter("serve_exec_timeouts_total",
		"Requests that hit the execution timeout (504).")
	s.panics = reg.Counter("serve_panics_total",
		"Handler panics converted to 500 responses.")
	s.probeBypass = reg.Counter("serve_probe_bypass_total",
		"Cached-key probes answered without consuming a gate slot.")
	s.scatters = reg.Counter("serve_scatter_total",
		"Operations executed through the shard scatter client.")
	s.scatterFrags = reg.Counter("serve_scatter_fragments_total",
		"Plan fragments dispatched to shard workers.")
	s.partials = reg.Counter("serve_partial_total",
		"Responses merged without every shard (degraded scatter answers).")
	s.explains = reg.Counter("serve_explain_total",
		"Requests that asked for a per-query execution profile (?debug=explain).")
	s.federationErrors = reg.Counter("serve_federation_errors_total",
		"Shard metric scrapes that failed during /metrics federation.")

	// SLO burn-rate monitoring and breach-triggered capture. The monitor
	// always runs (its gauges are the alerting surface); the flight
	// recorder only when a spool directory was configured.
	s.slo = cfg.SLO
	if s.slo <= 0 {
		s.slo = 250 * time.Millisecond
	}
	if cfg.ProfileDir != "" {
		fr, err := obs.NewFlightRecorder(cfg.ProfileDir, cfg.ProfileCaptures, cfg.ProfileCPU)
		if err != nil {
			s.logger.Error("flight recorder disabled", "error", err.Error())
		} else {
			s.flight = fr
		}
	}
	s.burn = obs.NewBurnMonitor(obs.BurnConfig{
		Budget:    cfg.BurnBudget,
		Fast:      cfg.BurnFast,
		Slow:      cfg.BurnSlow,
		Threshold: cfg.BurnThreshold,
		Cooldown:  cfg.BurnCooldown,
		OnBreach: func(fast, slow float64) {
			s.logger.Error("SLO burn-rate breach",
				"fast_burn", fmt.Sprintf("%.2f", fast),
				"slow_burn", fmt.Sprintf("%.2f", slow),
				"slo", s.slo.String())
			s.flight.Capture(
				fmt.Sprintf("slo-burn fast=%.2f slow=%.2f", fast, slow),
				s.slowLog,
				map[string]any{
					"fast_burn": fast,
					"slow_burn": slow,
					"slo_ms":    float64(s.slo) / float64(time.Millisecond),
				})
		},
	})
	reg.GaugeFunc("serve_slo_burn_rate",
		"SLO burn rate (bad fraction over error budget) per lookback window.",
		s.burn.FastRate, obs.L("window", "fast"))
	reg.GaugeFunc("serve_slo_burn_rate",
		"SLO burn rate (bad fraction over error budget) per lookback window.",
		s.burn.SlowRate, obs.L("window", "slow"))
	reg.CounterFunc("serve_slo_breaches_total",
		"Multi-window SLO burn-rate breaches fired.", s.burn.Breaches)
	reg.CounterFunc("serve_flight_captures_total",
		"Flight-recorder captures completed (profiles + slow log spooled to disk).",
		func() uint64 { return s.flight.Captures() })
	reg.CounterFunc("serve_flight_dropped_total",
		"Flight-recorder capture requests dropped because one was already in flight.",
		func() uint64 { return s.flight.Dropped() })

	s.mux.HandleFunc("/healthz", s.instrumented("healthz", s.handleHealth))
	s.mux.HandleFunc("/readyz", s.instrumented("readyz", s.handleReady))
	s.mux.HandleFunc("/v1/datasets", s.instrumented("datasets", s.handleDatasets))
	s.mux.HandleFunc("/v1/steps", s.instrumented("steps", s.handleSteps))
	s.mux.HandleFunc("/v1/vars", s.instrumented("vars", s.handleVars))
	s.mux.HandleFunc("/v1/query", s.instrumented("query", s.handleQuery))
	s.mux.HandleFunc("/v1/hist1d", s.instrumented("hist1d", s.handleHist1D))
	s.mux.HandleFunc("/v1/hist2d", s.instrumented("hist2d", s.handleHist2D))
	s.mux.HandleFunc("/v1/sweep2d", s.instrumented("sweep2d", s.handleSweep2D))
	s.mux.HandleFunc("/v1/ingest", s.instrumented("ingest", s.handleIngest))
	s.mux.HandleFunc("/v1/stats", s.instrumented("stats", s.handleStats))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/v1/debug/slow", s.slowLog.Handler())
	s.registerSessions()
	return s
}

// Registry returns the server's metric registry, for embedding its series
// in an external admin mux alongside obs.Default().
func (s *Server) Registry() *obs.Registry { return s.reg }

// SlowLog returns the server's slow-query log, for serving on an admin
// listener.
func (s *Server) SlowLog() *obs.SlowLog { return s.slowLog }

// SetShardClient turns this server into a scatter-gather frontend: query,
// hist1d, hist2d and sweep2d fragments are scattered to the client's shard
// workers and the mergeable partials combined, instead of evaluating
// locally. Replaces (and closes) any previous client. The server still
// needs its datasets registered with AddDataset — planning reads row
// counts and variable metadata locally (every node shares the dataset
// directory).
func (s *Server) SetShardClient(c *shard.Client) {
	s.mu.Lock()
	old := s.shard
	s.shard = c
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// shardClient returns the configured scatter client, or nil.
func (s *Server) shardClient() *shard.Client {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shard
}

// AddDataset opens a dataset directory and serves it under name.
func (s *Server) AddDataset(name, dir string) error {
	src, err := fastquery.Open(dir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		src.Close() //nolint:errcheck // idempotent
		return fmt.Errorf("serve: duplicate dataset %q", name)
	}
	s.datasets[name] = &dataset{name: name, src: src, steps: map[int]*stepHandle{}}
	s.order = append(s.order, name)
	return nil
}

// Close releases every open dataset and the shard client, if any.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.datasets {
		d.close()
	}
	s.datasets = map[string]*dataset{}
	s.order = nil
	if s.shard != nil {
		s.shard.Close()
		s.shard = nil
	}
}

// BackendCalls returns how many backend evaluations have run (cache
// misses), for tests and the stats endpoint.
func (s *Server) BackendCalls() uint64 { return s.backendCalls.Load() }

// SetDraining switches the readiness signal: while draining, /readyz
// returns 503 so a load balancer stops routing new work here, while
// /healthz keeps reporting the process alive. Call with true before
// http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ServeHTTP implements http.Handler. Panics in handlers become 500s with
// a counter rather than killing the whole process (http.ErrAbortHandler
// keeps its conventional meaning and is re-panicked).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			s.logger.Error("panic in handler",
				"method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote headers this is a
			// no-op and the client sees a truncated response.
			writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// requestCtx derives the execution context for one request: the client
// connection (canceled on disconnect) bounded by ExecTimeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.ExecTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.ExecTimeout)
	}
	return context.WithCancel(r.Context())
}

// writeExecError maps an execution error to a response: client
// cancellation to 499 (nginx's convention), deadline expiry to 504, and
// everything else to 500, with distinct counters for the first two.
func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		writeError(w, 499, "client canceled: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.execTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, "execution timeout: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// admit acquires a gate slot for a heavy request under its priority
// class, tracing the wait as "admission-wait" so queueing shows up in
// span trees. On success it returns an idempotent release closure that
// reports the slot's hold time back to the limiter.
func (s *Server) admit(r *http.Request, class Class) (release func(), err error) {
	_, sp := obs.StartSpan(r.Context(), "admission-wait")
	sp.SetAttr("class", class.String())
	err = s.gate.Acquire(r.Context(), class)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	held := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() { s.gate.Release(time.Since(held)) })
	}, nil
}

// writeShed maps an admission failure to a response: immediate shed to
// 429, queue-deadline expiry to 503 — both carrying a Retry-After derived
// from the gate's measured drain rate — and client disconnect to 499.
func (s *Server) writeShed(w http.ResponseWriter, class Class, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.gate.RetryAfter(class)))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrQueueTimeout):
		w.Header().Set("Retry-After", strconv.Itoa(s.gate.RetryAfter(class)))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default: // client went away
		s.canceled.Inc()
		writeError(w, 499, "client canceled: %v", err)
	}
}

// shedErr reports whether an admission error is load shedding (as opposed
// to the client going away) — the only failures brownout may rescue.
func shedErr(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrQueueTimeout)
}

// peekBypass answers a request whose exact cache key is already resident
// without consuming a gate slot: the cached-key probe class. One map
// lookup cannot meaningfully load the server, so probes stay instant even
// when every slot is busy — the property that keeps an exploration
// client's redraws responsive under overload.
func (s *Server) peekBypass(r *http.Request, key string) (any, bool) {
	_, sp := obs.StartSpan(r.Context(), "cache-peek")
	val, ok := s.cache.Peek(key)
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	if ok {
		s.probeBypass.Inc()
	}
	return val, ok
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(body) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// httpError carries a status code through request helpers.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the load-balancer signal: 200 while serving, 503 while
// draining. Liveness (/healthz) stays 200 throughout a drain.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// buildInfo reports the binary's provenance and runtime state — enough to
// answer "what exactly is running here, and for how long" from /v1/stats.
func (s *Server) buildInfo() BuildInfo {
	b := BuildInfo{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Goroutines:    runtime.NumGoroutine(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.Version = bi.Main.Version
		b.Path = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				b.Revision = kv.Value
			}
		}
	}
	return b
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := StatsBody{
		Cache:        s.cache.Stats(),
		Admission:    s.gate.Stats(),
		BackendCalls: s.backendCalls.Load(),
		Canceled:     s.canceled.Load(),
		ExecTimeouts: s.execTimeouts.Load(),
		Panics:       s.panics.Load(),
		Build:        s.buildInfo(),
		Metrics:      obs.SnapshotAll(s.reg, obs.Default()),
	}
	sess := s.sessions.Stats()
	body.Sessions = &sess
	s.mu.RLock()
	for _, name := range s.order {
		d := s.datasets[name]
		if fails := d.src.IndexFailures(); len(fails) > 0 {
			if body.IndexFailures == nil {
				body.IndexFailures = map[string][]fastquery.IndexFailure{}
			}
			body.IndexFailures[name] = fails
		}
		if d.live != nil {
			if body.Ingest == nil {
				body.Ingest = map[string]IngestStats{}
			}
			body.Ingest[name] = d.live.stats()
		}
	}
	s.mu.RUnlock()
	if c := s.shardClient(); c != nil {
		sh := &ShardingStats{
			Shards:      c.Shards(),
			Scatters:    s.scatters.Load(),
			Fragments:   s.scatterFrags.Load(),
			Partials:    s.partials.Load(),
			ShardStatus: c.Stats(r.Context(), 2*time.Second),
		}
		var hits, misses uint64
		for _, st := range sh.ShardStatus {
			hits += st.Stats.CacheHits
			misses += st.Stats.CacheMisses
			if sh.FleetSteps == 0 && st.Err == "" {
				sh.FleetSteps = st.Stats.Steps
			}
		}
		if hits+misses > 0 {
			sh.FleetCacheHitRate = float64(hits) / float64(hits+misses)
		}
		body.Sharding = sh
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(s.order))
	for _, name := range s.order {
		d := s.datasets[name]
		out = append(out, DatasetInfo{
			Name:      name,
			Steps:     d.src.Steps(),
			Variables: d.src.Variables(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// lookup resolves the dataset named in the request.
func (s *Server) lookup(r *http.Request) (*dataset, *httpError) {
	name := r.FormValue("dataset")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.order) == 1 {
			return s.datasets[s.order[0]], nil
		}
		return nil, errf(http.StatusBadRequest, "missing dataset parameter (have %v)", s.order)
	}
	d, ok := s.datasets[name]
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q (have %v)", name, s.order)
	}
	return d, nil
}

// stepParam resolves the step parameter, defaulting to the last timestep.
func stepParam(r *http.Request, d *dataset) (int, *httpError) {
	raw := r.FormValue("step")
	if raw == "" {
		return d.src.Steps() - 1, nil
	}
	t, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "bad step %q", raw)
	}
	if t < 0 || t >= d.src.Steps() {
		return 0, errf(http.StatusNotFound, "step %d out of range [0,%d)", t, d.src.Steps())
	}
	return t, nil
}

func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	d, herr := s.lookup(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	body := StepsBody{Dataset: d.name, Steps: d.src.Steps(), Live: d.live != nil}
	if d.live != nil {
		body.Generation = d.live.man.Load().Generation
	}
	if r.FormValue("detail") != "" {
		for t := 0; t < d.src.Steps(); t++ {
			st, err := d.step(t)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "step %d: %v", t, err)
				return
			}
			info := StepInfo{Step: t, Indexed: st.HasIndex(), Rows: st.Rows(),
				IndexState: d.indexState(t, st)}
			body.Detail = append(body.Detail, info)
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	d, herr := s.lookup(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	t, herr := stepParam(r, d)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	st, err := d.step(t)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	names := d.src.Variables()
	sort.Strings(names)
	body := VarsBody{Dataset: d.name, Step: t, Vars: make([]VarInfo, 0, len(names))}
	for _, name := range names {
		lo, hi, err := st.MinMax(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%s: %v", name, err)
			return
		}
		body.Vars = append(body.Vars, VarInfo{Name: name, Min: lo, Max: hi})
	}
	writeJSON(w, http.StatusOK, body)
}

// request bundles the parameters shared by the query/histogram endpoints.
type request struct {
	d       *dataset
	st      *fastquery.Step
	t       int
	gen     uint64     // step's catalog generation (0 for static datasets)
	expr    query.Expr // nil when no condition was given
	src     string     // query text as received
	plan    string     // canonical rendering, "" when expr == nil
	backend fastquery.Backend

	explain     bool          // ?debug=explain: attach an execution profile
	explainOnly bool          // ?explain=only: return the profile instead of the answer
	prof        *plan.Profile // per-fragment collector, nil unless explain
	waitMS      float64       // frontend admission wait, for the profile
}

// parseRequest resolves dataset, step, condition and backend, validating
// every referenced variable so unknown names are a 404, not a backend
// error.
func (s *Server) parseRequest(r *http.Request, requireQuery bool) (*request, *httpError) {
	d, herr := s.lookup(r)
	if herr != nil {
		return nil, herr
	}
	t, herr := stepParam(r, d)
	if herr != nil {
		return nil, herr
	}
	st, err := d.step(t)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "%v", err)
	}
	req := &request{d: d, st: st, t: t, gen: d.stepGen(t), src: r.FormValue("q")}
	if req.explain, req.explainOnly = parseExplain(r); req.explain {
		req.prof = plan.NewProfile()
	}
	if req.src == "" && requireQuery {
		return nil, errf(http.StatusBadRequest, "missing q parameter")
	}
	if req.src != "" {
		_, sp := obs.StartSpan(r.Context(), "plan-canonicalize")
		expr, err := query.Parse(req.src)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		req.expr = query.Canonical(expr)
		req.plan = req.expr.String()
		sp.SetAttr("plan", req.plan)
		sp.End()
		if herr := checkVars(d, query.Vars(req.expr)...); herr != nil {
			return nil, herr
		}
	}
	switch b := r.FormValue("backend"); b {
	case "", "fastbit", "fb":
		if st.HasIndex() {
			req.backend = fastquery.FastBit
		} else if b == "" {
			req.backend = fastquery.Scan
		} else if ierr := st.IndexError(); ierr != nil {
			// The index exists but was rejected (truncated/corrupt): say
			// why, so the client knows this is degradation, not absence.
			return nil, errf(http.StatusServiceUnavailable,
				"step %d index unavailable (%v); use backend=scan", t, ierr)
		} else {
			return nil, errf(http.StatusBadRequest,
				"step %d has no index; use backend=scan", t)
		}
	case "scan", "custom":
		req.backend = fastquery.Scan
	default:
		return nil, errf(http.StatusBadRequest, "unknown backend %q (fastbit | scan)", b)
	}
	return req, nil
}

// checkVars verifies each name is a declared dataset variable.
func checkVars(d *dataset, names ...string) *httpError {
	have := d.src.Variables()
	set := map[string]bool{}
	for _, v := range have {
		set[v] = true
	}
	for _, name := range names {
		if name == "" {
			return errf(http.StatusBadRequest, "missing variable parameter")
		}
		if !set[name] {
			sort.Strings(have)
			return errf(http.StatusNotFound, "unknown variable %q (have %v)", name, have)
		}
	}
	return nil
}

// cacheKey builds the deterministic result-cache key: dataset, step, the
// step's catalog generation, backend, canonical plan, and the
// operation-specific spec. The generation makes live-ingest invalidation
// precise: an index publish bumps only that step's generation, so exactly
// its entries stop matching while every other step's stay hot.
func (req *request) cacheKey(spec string) string {
	return strings.Join([]string{
		req.d.name, strconv.Itoa(req.t), strconv.FormatUint(req.gen, 10),
		req.backend.String(), req.plan, spec,
	}, "\x1f")
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// binningParam parses the binning parameter (uniform default).
func binningParam(r *http.Request) (histogram.Binning, *httpError) {
	switch b := r.FormValue("binning"); b {
	case "", "uniform":
		return histogram.Uniform, nil
	case "adaptive":
		return histogram.Adaptive, nil
	default:
		return 0, errf(http.StatusBadRequest, "unknown binning %q (uniform | adaptive)", b)
	}
}

// intParam parses an integer parameter with a default and bounds.
func intParam(r *http.Request, name string, def, min, max int) (int, *httpError) {
	raw := r.FormValue(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "bad %s %q", name, raw)
	}
	if v < min || v > max {
		return 0, errf(http.StatusBadRequest, "%s %d out of range [%d,%d]", name, v, min, max)
	}
	return v, nil
}

// floatParam parses a float parameter; NaN when absent.
func floatParam(r *http.Request, name string) (float64, *httpError) {
	raw := r.FormValue(name)
	if raw == "" {
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) {
		return 0, errf(http.StatusBadRequest, "bad %s %q", name, raw)
	}
	return v, nil
}

// cacheDo runs the cache lookup under a "cache-lookup" span recording how
// the result was satisfied (computed, hit, coalesced). The flight context
// is detached from the initiating request's cancellation (see Cache.Do)
// but inherits its deadline: the deadline is what the scatter client
// carves per-fragment budgets from, and work that cannot finish by the
// first requester's deadline should not run unbounded for coalesced
// waiters either.
func (s *Server) cacheDo(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (any, Outcome, error) {
	ctx, sp := obs.StartSpan(ctx, "cache-lookup")
	run := fn
	dl, hasDL := ctx.Deadline()
	prof := plan.ProfileFromContext(ctx)
	if hasDL || prof != nil {
		run = func(fctx context.Context) (any, error) {
			if hasDL {
				var cancel context.CancelFunc
				fctx, cancel = context.WithDeadline(fctx, dl)
				defer cancel()
			}
			if prof != nil {
				// The flight context is detached from the request, which
				// drops context values: re-attach the initiating request's
				// profile collector so the fragments the flight runs are
				// attributed to it. Coalesced waiters never reach here, so
				// they report zero fragments with cache_source "coalesced".
				fctx = plan.WithProfile(fctx, prof)
			}
			return fn(fctx)
		}
	}
	val, outcome, err := s.cache.Do(ctx, key, run)
	sp.SetAttr("outcome", outcome.String())
	sp.End()
	return val, outcome, err
}

// writeBody serializes a success response under a "serialize" span.
func writeBody(r *http.Request, w http.ResponseWriter, body any) {
	_, sp := obs.StartSpan(r.Context(), "serialize")
	writeJSON(w, http.StatusOK, body)
	sp.End()
}

// planQuery builds the planner input for this request. The query text is
// already canonical (parseRequest), so equal requests produce equal
// fragments and fragment-cache keys across the fleet.
func (req *request) planQuery(op plan.Op) plan.Query {
	return plan.Query{
		Op:      op,
		Dataset: req.d.name,
		Step:    req.t,
		Query:   req.plan,
		Backend: req.backend,
	}
}

// localRunner evaluates plan fragments in-process against the server's own
// open step handles: the one-shard degenerate case of the scatter path.
// Single-process serving runs the same planner/executor code as a
// frontend, just with this runner instead of RPCs.
type localRunner struct {
	s *Server
	d *dataset
}

func (lr localRunner) RunFragment(ctx context.Context, shardIdx int, f plan.Fragment) (*plan.FragmentResult, error) {
	st, err := lr.d.step(f.Step)
	if err != nil {
		return nil, err
	}
	lr.s.backendCalls.Inc()
	profile := plan.ProfileFromContext(ctx)
	if profile == nil {
		return shard.Eval(ctx, st, f)
	}
	// Profiled request: charge the fragment's evaluation to a fresh cost
	// accumulator, exactly the way a shard worker does, so local and
	// scattered explains carry the same per-fragment breakdown.
	cost := &obs.Cost{}
	start := time.Now()
	res, err := shard.Eval(obs.WithCost(ctx, cost), st, f)
	fp := plan.FragProfile{
		Shard:  shardIdx,
		Op:     f.Op.String(),
		Rows:   [2]int{int(f.Rows.Lo), int(f.Rows.Hi)},
		Cost:   cost.Snapshot(),
		EvalMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if err != nil {
		fp.Err = err.Error()
		fp.Exhausted = fastquery.IsExhausted(err)
	}
	profile.Add(fp)
	return res, err
}

// execPlan runs one planned operation: scattered across the shard fleet
// when a scatter client is configured (merging partials, degrading to a
// Partial answer when a shard is unreachable), locally otherwise.
func (s *Server) execPlan(ctx context.Context, d *dataset, pq plan.Query, rows uint64) (*plan.Result, error) {
	if c := s.shardClient(); c != nil {
		s.scatters.Inc()
		res, err := plan.Execute(ctx, pq, plan.ShardMap{Shards: c.Shards()}, rows, c, plan.ReturnPartial)
		if res != nil {
			s.scatterFrags.Add(uint64(res.Fragments))
			if res.Partial {
				s.partials.Inc()
			}
		}
		return res, err
	}
	return plan.Execute(ctx, pq, plan.ShardMap{Shards: 1}, rows, localRunner{s: s, d: d}, plan.FailFast)
}

// markPartial mirrors a partial merge in the response headers, the way
// X-Degraded marks brownout answers.
func markPartial(w http.ResponseWriter, res *plan.Result) {
	if res.Partial {
		w.Header().Set("X-Partial", "1")
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, herr := s.parseRequest(r, true)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	key := req.cacheKey("count")
	var execCtx context.Context // set once execution starts; nil on peek hits
	respond := func(val any, outcome Outcome) {
		res := val.(*plan.Result)
		rows := req.st.Rows()
		sel := 0.0
		if rows > 0 {
			sel = float64(res.Count) / float64(rows)
		}
		s.noteExplain(r, req, res, outcome, "")
		markPartial(w, res)
		body := QueryBody{
			Dataset:      req.d.name,
			Step:         req.t,
			Query:        req.src,
			Plan:         req.plan,
			Backend:      req.backend.String(),
			Rows:         rows,
			Matches:      res.Count,
			Selectivity:  sel,
			Outcome:      outcome.String(),
			Partial:      res.Partial,
			FailedShards: res.Failed,
			ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
			Trace:        traceEcho(r),
		}
		if req.explain {
			s.explains.Inc()
			body.Explain = s.buildExplain(execCtx, r, req, "query", res, outcome, "", start)
			if req.explainOnly {
				writeBody(r, w, explainOnlyBody{Explain: body.Explain})
				return
			}
		}
		writeBody(r, w, body)
	}
	if val, ok := s.peekBypass(r, key); ok {
		respond(val, Hit)
		return
	}
	admitStart := time.Now()
	release, aerr := s.admit(r, ClassDrill)
	req.waitMS = float64(time.Since(admitStart)) / float64(time.Millisecond)
	if aerr != nil {
		s.writeShed(w, ClassDrill, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.prof != nil {
		ctx = plan.WithProfile(ctx, req.prof)
	}
	execCtx = ctx
	val, outcome, err := s.cacheDo(ctx, key, func(ctx context.Context) (any, error) {
		return s.execPlan(ctx, req.d, req.planQuery(plan.OpCount), req.st.Rows())
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	respond(val, outcome)
}

func (s *Server) handleHist1D(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	spec, herr := hist1DSpec(r, req.d)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	s.serveHist1D(w, r, req, spec, start)
}

// hist1DSpec parses the 1D histogram parameters.
func hist1DSpec(r *http.Request, d *dataset) (histogram.Spec1D, *httpError) {
	var zero histogram.Spec1D
	v := r.FormValue("var")
	if herr := checkVars(d, v); herr != nil {
		return zero, herr
	}
	bins, herr := intParam(r, "bins", 64, 1, MaxBins1D)
	if herr != nil {
		return zero, herr
	}
	spec := histogram.NewSpec1D(v, bins)
	if spec.Binning, herr = binningParam(r); herr != nil {
		return zero, herr
	}
	if spec.Lo, herr = floatParam(r, "lo"); herr != nil {
		return zero, herr
	}
	if spec.Hi, herr = floatParam(r, "hi"); herr != nil {
		return zero, herr
	}
	if spec.MinDensity, herr = floatParam(r, "mindensity"); herr != nil {
		return zero, herr
	}
	if math.IsNaN(spec.MinDensity) {
		spec.MinDensity = 0
	}
	return spec, nil
}

// hist1DSpecKey renders the operation-specific part of a 1D histogram's
// cache key; the brownout ladder reuses it to probe coarser resolutions.
func hist1DSpecKey(spec histogram.Spec1D) string {
	return strings.Join([]string{
		"hist1d", spec.Var, strconv.Itoa(spec.Bins), spec.Binning.String(),
		fmtG(spec.Lo), fmtG(spec.Hi), fmtG(spec.MinDensity),
	}, "|")
}

func (s *Server) serveHist1D(w http.ResponseWriter, r *http.Request, req *request, spec histogram.Spec1D, start time.Time) {
	var execCtx context.Context // set once execution starts; nil on peek/brownout hits
	respond := func(val any, outcome Outcome, degraded string) {
		res := val.(*plan.Result)
		h := res.Hist1
		body := Hist1DBody{
			Dataset:      req.d.name,
			Step:         req.t,
			Plan:         req.plan,
			Backend:      req.backend.String(),
			Var:          spec.Var,
			Binning:      spec.Binning.String(),
			Edges:        h.Edges,
			Counts:       h.Counts,
			Total:        h.Total(),
			Outcome:      outcome.String(),
			Degraded:     degraded != "",
			DegradedMode: degraded,
			Partial:      res.Partial,
			FailedShards: res.Failed,
			ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
			Trace:        traceEcho(r),
		}
		if degraded != "" {
			w.Header().Set("X-Degraded", degraded)
		}
		s.noteExplain(r, req, res, outcome, degraded)
		markPartial(w, res)
		if req.explain {
			s.explains.Inc()
			body.Explain = s.buildExplain(execCtx, r, req, "hist1d", res, outcome, degraded, start)
			if req.explainOnly {
				writeBody(r, w, explainOnlyBody{Explain: body.Explain})
				return
			}
		}
		writeBody(r, w, body)
	}
	if val, ok := s.peekBypass(r, req.cacheKey(hist1DSpecKey(spec))); ok {
		respond(val, Hit, "")
		return
	}
	admitStart := time.Now()
	release, aerr := s.admit(r, ClassDrill)
	req.waitMS = float64(time.Since(admitStart)) / float64(time.Millisecond)
	if aerr != nil {
		if shedErr(aerr) && s.tryBrownoutHist1D(r, req, spec, respond) {
			return
		}
		s.writeShed(w, ClassDrill, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.prof != nil {
		ctx = plan.WithProfile(ctx, req.prof)
	}
	execCtx = ctx
	val, outcome, err := s.cacheDo(ctx, req.cacheKey(hist1DSpecKey(spec)), func(ctx context.Context) (any, error) {
		pq := req.planQuery(plan.OpHist1D)
		pq.Spec1 = spec
		return s.execPlan(ctx, req.d, pq, req.st.Rows())
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	respond(val, outcome, "")
}

func (s *Server) handleHist2D(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	spec, herr := hist2DSpec(r, req.d)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	s.serveHist2D(w, r, req, spec, start)
}

// hist2DSpec parses the 2D histogram parameters.
func hist2DSpec(r *http.Request, d *dataset) (histogram.Spec2D, *httpError) {
	var zero histogram.Spec2D
	xv, yv := r.FormValue("x"), r.FormValue("y")
	if herr := checkVars(d, xv, yv); herr != nil {
		return zero, herr
	}
	spec := histogram.NewSpec2D(xv, yv, 0, 0)
	var herr *httpError
	if spec.XBins, herr = intParam(r, "xbins", 64, 1, MaxBins2D); herr != nil {
		return zero, herr
	}
	if spec.YBins, herr = intParam(r, "ybins", 64, 1, MaxBins2D); herr != nil {
		return zero, herr
	}
	if spec.Binning, herr = binningParam(r); herr != nil {
		return zero, herr
	}
	bounds := []struct {
		name string
		dst  *float64
	}{
		{"xlo", &spec.XLo}, {"xhi", &spec.XHi},
		{"ylo", &spec.YLo}, {"yhi", &spec.YHi},
		{"mindensity", &spec.MinDensity},
	}
	for _, b := range bounds {
		if *b.dst, herr = floatParam(r, b.name); herr != nil {
			return zero, herr
		}
	}
	if math.IsNaN(spec.MinDensity) {
		spec.MinDensity = 0
	}
	return spec, nil
}

// hist2DSpecKey renders the operation-specific part of a 2D histogram's
// cache key; the brownout ladder reuses it to probe coarser resolutions.
func hist2DSpecKey(spec histogram.Spec2D) string {
	return strings.Join([]string{
		"hist2d", spec.XVar, spec.YVar,
		strconv.Itoa(spec.XBins), strconv.Itoa(spec.YBins), spec.Binning.String(),
		fmtG(spec.XLo), fmtG(spec.XHi), fmtG(spec.YLo), fmtG(spec.YHi),
		fmtG(spec.MinDensity),
	}, "|")
}

func (s *Server) serveHist2D(w http.ResponseWriter, r *http.Request, req *request, spec histogram.Spec2D, start time.Time) {
	var execCtx context.Context // set once execution starts; nil on peek/brownout hits
	respond := func(val any, outcome Outcome, degraded string) {
		res := val.(*plan.Result)
		h := res.Hist2
		body := Hist2DBody{
			Dataset:      req.d.name,
			Step:         req.t,
			Plan:         req.plan,
			Backend:      req.backend.String(),
			XVar:         spec.XVar,
			YVar:         spec.YVar,
			Binning:      spec.Binning.String(),
			XEdges:       h.XEdges,
			YEdges:       h.YEdges,
			Counts:       h.Counts,
			Total:        h.Total(),
			Outcome:      outcome.String(),
			Degraded:     degraded != "",
			DegradedMode: degraded,
			Partial:      res.Partial,
			FailedShards: res.Failed,
			ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
			Trace:        traceEcho(r),
		}
		if degraded != "" {
			w.Header().Set("X-Degraded", degraded)
		}
		s.noteExplain(r, req, res, outcome, degraded)
		markPartial(w, res)
		if req.explain {
			s.explains.Inc()
			body.Explain = s.buildExplain(execCtx, r, req, "hist2d", res, outcome, degraded, start)
			if req.explainOnly {
				writeBody(r, w, explainOnlyBody{Explain: body.Explain})
				return
			}
		}
		writeBody(r, w, body)
	}
	if val, ok := s.peekBypass(r, req.cacheKey(hist2DSpecKey(spec))); ok {
		respond(val, Hit, "")
		return
	}
	admitStart := time.Now()
	release, aerr := s.admit(r, ClassDrill)
	req.waitMS = float64(time.Since(admitStart)) / float64(time.Millisecond)
	if aerr != nil {
		if shedErr(aerr) && s.tryBrownoutHist2D(r, req, spec, respond) {
			return
		}
		s.writeShed(w, ClassDrill, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.prof != nil {
		ctx = plan.WithProfile(ctx, req.prof)
	}
	execCtx = ctx
	val, outcome, err := s.cacheDo(ctx, req.cacheKey(hist2DSpecKey(spec)), func(ctx context.Context) (any, error) {
		pq := req.planQuery(plan.OpHist2D)
		pq.Spec2 = spec
		return s.execPlan(ctx, req.d, pq, req.st.Rows())
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	respond(val, outcome, "")
}

// stepsParam parses the steps parameter for sweeps: "" (all steps),
// "a-b" (inclusive range), or a comma-separated list. A list naming a
// step twice is rejected, so one request runs at most Steps() plans.
func stepsParam(r *http.Request, d *dataset) ([]int, *httpError) {
	n := d.src.Steps()
	raw := r.FormValue("steps")
	if raw == "" {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	check := func(t int) *httpError {
		if t < 0 || t >= n {
			return errf(http.StatusNotFound, "step %d out of range [0,%d)", t, n)
		}
		return nil
	}
	if lo, hi, ok := strings.Cut(raw, "-"); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a > b {
			return nil, errf(http.StatusBadRequest, "bad steps range %q", raw)
		}
		if herr := check(a); herr != nil {
			return nil, herr
		}
		if herr := check(b); herr != nil {
			return nil, herr
		}
		out := make([]int, 0, b-a+1)
		for t := a; t <= b; t++ {
			out = append(out, t)
		}
		return out, nil
	}
	var out []int
	seen := map[int]bool{}
	for _, f := range strings.Split(raw, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad steps %q", raw)
		}
		if herr := check(t); herr != nil {
			return nil, herr
		}
		if seen[t] {
			return nil, errf(http.StatusBadRequest, "step %d listed twice", t)
		}
		seen[t] = true
		out = append(out, t)
	}
	return out, nil
}

// handleSweep2D computes one conditional 2D histogram per timestep — the
// paper's temporal-evolution view. Each step runs through the planner in
// turn: in-process, or scattered across the shard fleet on a frontend. A
// step merged without every shard marks the whole sweep partial, the way
// /v1/query marks one step.
func (s *Server) handleSweep2D(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	spec, herr := hist2DSpec(r, req.d)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	steps, herr := stepsParam(r, req.d)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	admitStart := time.Now()
	release, aerr := s.admit(r, ClassSweep)
	req.waitMS = float64(time.Since(admitStart)) / float64(time.Millisecond)
	if aerr != nil {
		s.writeShed(w, ClassSweep, aerr)
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.prof != nil {
		ctx = plan.WithProfile(ctx, req.prof)
	}

	mode := "local"
	if s.shardClient() != nil {
		mode = "scatter"
	}
	results, err := s.planSweep(ctx, req, steps, spec)
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	// sum folds the per-step results into one for the explain and
	// slow-log surfaces: fragments add up, failed shards are the union.
	sum := &plan.Result{Mode: mode}
	body := Sweep2DBody{
		Dataset:   req.d.name,
		Steps:     steps,
		Plan:      req.plan,
		Backend:   req.backend.String(),
		Mode:      mode,
		XVar:      spec.XVar,
		YVar:      spec.YVar,
		Totals:    make([]uint64, len(results)),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		Trace:     traceEcho(r),
	}
	for i, res := range results {
		if res.Hist2 != nil {
			body.Totals[i] = res.Hist2.Total()
			body.Total += body.Totals[i]
		}
		sum.Fragments += res.Fragments
		sum.Partial = sum.Partial || res.Partial
		sum.BudgetExhausted = sum.BudgetExhausted || res.BudgetExhausted
		sum.Failed = append(sum.Failed, res.Failed...)
	}
	sort.Ints(sum.Failed)
	sum.Failed = slices.Compact(sum.Failed)
	body.Partial, body.FailedShards = sum.Partial, sum.Failed
	markPartial(w, sum)
	s.noteExplain(r, req, sum, Computed, "")
	if req.explain {
		s.explains.Inc()
		body.Explain = s.buildExplain(ctx, r, req, "sweep2d", sum, Computed, "", start)
		if req.explainOnly {
			writeBody(r, w, explainOnlyBody{Explain: body.Explain})
			return
		}
	}
	writeBody(r, w, body)
}

// planSweep runs the per-step histograms serially through the planner,
// each under its own sweep-step span, and returns one result per step.
// Without a scatter client every step evaluates in-process; with one,
// each step scatters across the shard fleet in turn.
func (s *Server) planSweep(ctx context.Context, req *request, steps []int, spec histogram.Spec2D) ([]*plan.Result, error) {
	out := make([]*plan.Result, len(steps))
	for i, t := range steps {
		st, err := req.d.step(t)
		if err != nil {
			return nil, err
		}
		sctx, sp := obs.StartSpan(ctx, "sweep-step")
		sp.SetAttr("step", strconv.Itoa(t))
		pq := req.planQuery(plan.OpHist2D)
		pq.Step = t
		pq.Spec2 = spec
		res, err := s.execPlan(sctx, req.d, pq, st.Rows())
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return nil, err
		}
		sp.End()
		out[i] = res
	}
	return out, nil
}
