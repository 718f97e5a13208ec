package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

const (
	dsName      = "lwfa"
	nShards     = 3
	fragEntries = 1024 // shard fragment cache, the qserve default
	// Set-up runs at least minSetups times and until minSetupTime has
	// been spent (at most maxSetups), so the reported median rests on
	// several repetitions even where one set-up takes a fraction of a
	// second.
	minSetups    = 5
	maxSetups    = 15
	minSetupTime = 2 * time.Second
)

var indexOpts = fastbit.IndexOptions{Bins: 256}

// bench is the state of one invocation.
type bench struct {
	opt      options
	shape    shape
	stateDir string
	runDir   string
	sharded  bool
	tracer   *tracer
	dataDir  string // the files the workload serves

	topo *topo

	mu         sync.Mutex // guards the counters below (client goroutines)
	attempted  int
	failed     int
	mismatches []string
	values     map[string]measured
	corrupted  bool
	claims     []scanClaim

	// indexLoads sums explain index_loads over the last warm-up pass
	// (traced runs only).
	indexLoads uint64
}

func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// topo is one running serving topology: an HTTP server on loopback, and
// for the sharded case three in-process shard workers behind net/rpc.
type topo struct {
	srv    *serve.Server
	hs     *http.Server
	execs  []*shard.Executor
	rpcs   []*cluster.Server
	client *shard.Client
	http   *httpClient
	served chan struct{} // closed when the HTTP server's Serve returns
}

// newServer is a serving frontend with qserve's default caches and
// concurrency. Admission stays at the fixed limit and brownout off, so
// every answer is exact and the correctness gate applies to all of them.
func newServer() *serve.Server {
	return serve.New(serve.Config{Logger: obs.NewLogger(io.Discard, "serve")})
}

// shardAdmit is the shard role's admission, as qserve wires it: fragment
// RPCs queue behind a gate of the default concurrency (8, queue 16).
func shardAdmit() shard.AdmitFunc {
	gate := serve.NewGate(serve.GateConfig{Limit: 8, QueueDepth: 16, QueueTimeout: 2 * time.Second})
	return func(ctx context.Context) (func(), error) {
		if err := gate.Acquire(ctx, serve.ClassDrill); err != nil {
			return nil, err
		}
		held := time.Now()
		var once sync.Once
		return func() { once.Do(func() { gate.Release(time.Since(held)) }) }, nil
	}
}

// startTopo starts the serving topology for dir. live serves it as a live
// dataset accepting POST /v1/ingest.
func startTopo(sharded, live bool, dir string) (*topo, error) {
	t := &topo{srv: newServer()}
	if sharded {
		// shard.StartLocalShards without hiding the executors, so their
		// fragment-cache counters can be read directly.
		var groups [][]string
		for i := 0; i < nShards; i++ {
			ex := shard.NewExecutor(fragEntries)
			t.execs = append(t.execs, ex)
			if err := ex.AddDataset(dsName, dir); err != nil {
				t.close()
				return nil, err
			}
			rs, err := shard.NewServer(shard.NewService(ex, shardAdmit()), dir)
			if err != nil {
				t.close()
				return nil, err
			}
			t.rpcs = append(t.rpcs, rs)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.close()
				return nil, err
			}
			rs.Serve(l)
			groups = append(groups, []string{l.Addr().String()})
		}
		pc := cluster.DefaultPoolConfig()
		pc.Breaker = cluster.DefaultBreakerConfig()
		pc.RetryBudgetRatio, pc.RetryBudgetBurst = 0.1, 20
		c, err := shard.DialShards(groups, pc, 0)
		if err != nil {
			t.close()
			return nil, err
		}
		t.client = c
		t.srv.SetShardClient(c)
	}
	var err error
	if live {
		err = t.srv.AddLiveDataset(dsName, dir, serve.LiveConfig{CatalogPoll: -1, Index: indexOpts})
	} else {
		err = t.srv.AddDataset(dsName, dir)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	t.hs = &http.Server{Handler: t.srv}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		t.hs.Serve(l) //nolint:errcheck // returns ErrServerClosed on close
	}()
	t.http = newHTTPClient("http://" + l.Addr().String())
	return t, nil
}

func (t *topo) close() {
	if t.hs != nil {
		t.hs.Close()
		<-t.served
	}
	if t.http != nil {
		t.http.close()
	}
	t.srv.Close() // closes the shard client too
	for _, r := range t.rpcs {
		r.Close()
	}
	for _, e := range t.execs {
		e.Close()
	}
}

func (b *bench) closeTopo() {
	if b.topo != nil {
		b.topo.close()
		b.topo = nil
	}
}

// fragStats sums the shard executors' fragment-cache counters.
func (t *topo) fragStats() (hits, misses uint64) {
	for _, e := range t.execs {
		s := e.Stats()
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	return hits, misses
}

// setup runs set-up repeatedly — prep (untimed), then build + start +
// warm (timed) — records the median as setup_s and keeps the last
// topology running for the measured window.
func (b *bench) setup(prep, build func() error, live bool, dir string, warm func(*topo) error) error {
	var durs []float64
	var spent float64
	for len(durs) < minSetups || (spent < minSetupTime.Seconds() && len(durs) < maxSetups) {
		b.closeTopo()
		if prep != nil {
			if err := prep(); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("index build: %w", err)
		}
		t, err := startTopo(b.sharded, live, dir)
		if err != nil {
			return fmt.Errorf("start: %w", err)
		}
		b.topo = t
		b.indexLoads = 0
		if err := warm(t); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
		spent += durs[len(durs)-1]
	}
	sort.Float64s(durs)
	b.metric("setup_s", durs[len(durs)/2], len(durs))
	return nil
}

// removeIndexes deletes the sidecar indexes of a static dataset so the
// next set-up builds them again.
func removeIndexes(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".idx") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func buildStaticIndexes(dir string) func() error {
	return func() error {
		return fastquery.BuildIndexes(dir, fastquery.IndexOptions{IDVar: "id", Index: indexOpts, Force: true})
	}
}

// warmSteps is the warm-up pass: per step, one count touching every
// variable the workloads cut on or view, plus the variable metadata, so lazy
// index sections load and data chunks are read before timing starts. Its
// thresholds are at the 99.5th percentile, outside the request pool.
func (b *bench) warmSteps(t *topo, steps []int, tabs func(step int) quantiles) error {
	for _, s := range steps {
		q := tabs(s)
		pred := fmt.Sprintf("px > %s && x > %s && py > %s && y > -1",
			fmtF(q.above("px", 0.995)), fmtF(q.above("x", 0.995)), fmtF(q.above("py", 0.995)))
		path := fmt.Sprintf("/v1/query?dataset=%s&step=%d&q=%s", dsName, s, esc(pred))
		if b.tracer != nil {
			path += "&debug=explain"
		}
		body, err := t.http.getOK(path)
		if err != nil {
			return err
		}
		if b.tracer != nil {
			if eb := explainOf(body); eb != nil {
				b.indexLoads += eb.Totals.IndexLoads
			}
		}
		if _, err := t.http.getOK(fmt.Sprintf("/v1/vars?dataset=%s&step=%d", dsName, s)); err != nil {
			return err
		}
	}
	return nil
}
