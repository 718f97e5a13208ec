package cluster

import (
	"context"
	"errors"
	"net"
	"net/rpc"
	"runtime"
	"testing"
	"time"

	"repro/internal/fastquery"
	"repro/internal/obs"
)

// testService is a test-only receiver served beside Worker.Ping. Its
// replies carry a worker-side span tree the way the shard fragment
// service's do, and Fatal fails the way a bad request does on every node.
type testService struct{}

// EchoArgs is testService's request; TraceID propagates the caller's
// trace like the fragment protocol's ExecArgs.TraceID.
type EchoArgs struct{ TraceID string }

// EchoReply carries the worker-side span tree when a trace ID was sent.
type EchoReply struct{ Trace *obs.SpanData }

// RemoteTrace lets CallOn graft the worker-side tree into the caller's.
func (r *EchoReply) RemoteTrace() *obs.SpanData { return r.Trace }

// Echo answers with a worker-side trace holding one stage span.
func (testService) Echo(args *EchoArgs, reply *EchoReply) error {
	if args.TraceID == "" {
		return nil
	}
	tr := obs.NewTrace(args.TraceID, "worker:echo")
	_, sp := obs.StartSpan(obs.ContextWithSpan(context.Background(), tr.Root()), "worker-stage")
	sp.End()
	tr.Root().End()
	reply.Trace = tr.Data()
	return nil
}

// Fatal refuses every request with a fatal-classified error.
func (testService) Fatal(args *EchoArgs, reply *EchoReply) error {
	return fastquery.Fatalf("bad request")
}

// TestDialFailure: one unreachable address fails the whole dial, so a
// pool never starts with a worker it cannot reach.
func TestDialFailure(t *testing.T) {
	live, _ := startWorker(t, nil)
	if _, err := DialConfig([]string{live, "127.0.0.1:1"}, callOnConfig()); err == nil {
		t.Fatal("dial with a closed port succeeded")
	}
}

func TestDialNeverStartedWorker(t *testing.T) {
	if _, err := DialConfig([]string{"127.0.0.1:1"}, DefaultPoolConfig()); err == nil {
		t.Fatal("dial to never-started worker succeeded")
	}
	if _, err := DialConfig(nil, DefaultPoolConfig()); err == nil {
		t.Fatal("empty address list accepted")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 1)
	pool, err := DialConfig(addrs, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // must not panic or double-close
}

// TestCallOnAgainstShutDownWorkers: with every worker gone the call fails
// and the pool marks them all unhealthy.
func TestCallOnAgainstShutDownWorkers(t *testing.T) {
	addrs, kill := startKillableWorkers(t, 2)
	cfg := callOnConfig()
	cfg.CallTimeout = 2 * time.Second
	pool, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, k := range kill {
		k()
		k() // Close is idempotent.
	}
	var reply PingReply
	if err := pool.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0); err == nil {
		t.Fatal("call against shut-down workers succeeded")
	}
	if pool.HealthyNodes() != 0 {
		t.Fatalf("healthy nodes = %d after total outage", pool.HealthyNodes())
	}
}

// TestCallOnFatalNotRetried: a fatal reply fails the same way on every
// replica, so CallOn returns it without retrying or failing over, and
// the worker stays healthy.
func TestCallOnFatalNotRetried(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 2)
	pool, err := DialConfig(addrs, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var reply EchoReply
	err = pool.CallOn(context.Background(), 0, "Test.Fatal", &EchoArgs{}, &reply, 0)
	if !fastquery.IsFatal(err) {
		t.Fatalf("err = %v, want a fatal error", err)
	}
	st := pool.Stats()
	if st.Calls != 1 || st.Retries != 0 || st.Failovers != 0 {
		t.Fatalf("fatal call was retried or failed over: %+v", st)
	}
	if pool.HealthyNodes() != 2 {
		t.Fatalf("healthy nodes = %d, want 2", pool.HealthyNodes())
	}
}

func TestShutdownClosesServedConns(t *testing.T) {
	srv := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	client, err := rpc.Dial("tcp", l.Addr().String())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer client.Close()
	// A completed ping proves the server has accepted and is serving the
	// connection.
	if err := client.Call("Worker.Ping", &PingArgs{}, &PingReply{}); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // Close is idempotent.
	// The served connection must be closed by shutdown, not leaked: a call
	// on it fails promptly instead of being answered or blocking forever.
	done := make(chan error, 1)
	go func() { done <- client.Call("Worker.Ping", &PingArgs{}, &PingReply{}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ping answered after shutdown")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("served connection leaked: still open after shutdown")
	}
}

func TestProbeRecoversWorker(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 2)
	cfg := DefaultPoolConfig()
	cfg.ProbeInterval = 10 * time.Millisecond
	pool, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	pool.Callers()[0].SetHealthy(false)
	if pool.HealthyNodes() != 1 {
		t.Fatalf("healthy = %d", pool.HealthyNodes())
	}
	deadline := time.Now().Add(3 * time.Second)
	for pool.HealthyNodes() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never probed back to health: stats = %+v", pool.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := pool.Stats()
	if st.Probes == 0 || st.Recoveries == 0 {
		t.Fatalf("probe counters not recorded: %+v", st)
	}
}

func TestCallerTimeout(t *testing.T) {
	// A listener that accepts but never replies: calls must time out.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c := NewCaller(l.Addr().String(), CallerConfig{
		Timeout:     30 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	defer c.Close()
	var reply PingReply
	cs, err := c.CallWithStatsCtx(context.Background(), "Worker.Ping", &PingArgs{}, &reply)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if cs.Attempts != 2 || cs.Timeouts != 2 {
		t.Fatalf("stats = %+v", cs)
	}
}

func TestCallerClosed(t *testing.T) {
	c := NewCaller("127.0.0.1:1", CallerConfig{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := c.CallWithStatsCtx(context.Background(), "Worker.Ping", &PingArgs{}, &PingReply{}); !errors.Is(err, ErrCallerClosed) {
		t.Fatalf("err = %v, want ErrCallerClosed", err)
	}
}

func TestRunBoundsGoroutines(t *testing.T) {
	release := make(chan struct{})
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Step: i, Run: func() (uint64, int, error) {
			<-release
			return 0, 0, nil
		}}
	}
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := Run(tasks, 4, IOModel{}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	during := runtime.NumGoroutine()
	close(release)
	<-done
	// A fixed worker pool spawns ~workers+1 goroutines, not one per task.
	if during-before > 16 {
		t.Fatalf("Run spawned %d goroutines for 64 tasks with 4 workers", during-before)
	}
}
