package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
	"repro/internal/obs"
)

// tracedCalls makes one traced Test.Echo call per primary under a fresh
// trace and returns the completed span tree.
func tracedCalls(t *testing.T, p *Pool, primaries ...int) *obs.SpanData {
	t.Helper()
	tr := obs.NewTrace("", "request")
	ctx := obs.ContextWithSpan(context.Background(), tr.Root())
	for _, primary := range primaries {
		var reply EchoReply
		if err := p.CallOn(ctx, primary, "Test.Echo", &EchoArgs{TraceID: tr.ID}, &reply, 0); err != nil {
			t.Fatalf("call on %d: %v", primary, err)
		}
	}
	tr.Root().End()
	return tr.Data()
}

// TestTracePropagationSlowWorker: a call to a faultnet-delayed worker
// must show that worker's remote span — produced on the worker from the
// propagated trace ID — inside the originating request's trace, under the
// slow worker's rpc-worker span.
func TestTracePropagationSlowWorker(t *testing.T) {
	const delay = 30 * time.Millisecond
	fast, _ := startWorker(t, nil)
	slow, _ := startWorker(t, func(l net.Listener) net.Listener {
		return faultnet.Wrap(l, faultnet.Config{Seed: 7, Latency: delay})
	})
	p, err := DialConfig([]string{fast, slow}, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	d := tracedCalls(t, p, 0, 1)

	var slowSpan *obs.SpanData
	d.Walk(func(sd *obs.SpanData) {
		if sd.Name == "rpc-worker" && sd.Attrs["worker"] == slow {
			slowSpan = sd
		}
	})
	if slowSpan == nil {
		t.Fatalf("no rpc-worker span for slow worker %s in trace:\n%+v", slow, d)
	}
	remote := slowSpan.Find("worker:echo")
	if remote == nil {
		t.Fatal("slow worker's remote span missing from originating trace")
	}
	if !remote.Remote {
		t.Error("remote worker span not marked Remote")
	}
	if remote.Find("worker-stage") == nil {
		t.Error("worker-side stage spans missing from remote subtree")
	}
	// The rpc-worker wall time must reflect the injected latency (the
	// injector delays accept-side I/O on every connection round trip).
	if slowSpan.DurationMS < float64(delay/time.Millisecond) {
		t.Errorf("slow rpc-worker span %.1fms, want >= %dms", slowSpan.DurationMS, delay/time.Millisecond)
	}
	// The fast worker's remote span must be grafted too: the trace ID
	// reaches every call, not just the slow one.
	found := 0
	d.Walk(func(sd *obs.SpanData) {
		if sd.Name == "worker:echo" {
			found++
		}
	})
	if found != 2 {
		t.Errorf("remote worker spans = %d, want 2", found)
	}
}

// TestTraceRetriesAreSiblingSpans verifies that when a flaky worker forces
// retries, each attempt appears as a sibling rpc-attempt span under the
// same rpc-worker span in the originating trace.
func TestTraceRetriesAreSiblingSpans(t *testing.T) {
	clean, _ := startWorker(t, nil)
	flaky, _ := startWorker(t, func(l net.Listener) net.Listener {
		return faultnet.Wrap(l, faultnet.Config{Seed: 11, ErrProb: 0.3})
	})
	cfg := callOnConfig()
	// Injected write errors drop a response but leave the conn open, so
	// only the per-attempt deadline ends those attempts.
	cfg.CallTimeout = 300 * time.Millisecond
	cfg.MaxRetries = 4
	p, err := DialConfig([]string{clean, flaky}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The injected 30% error rate makes a retry within a few calls
	// overwhelmingly likely; scan traces until one shows sibling attempts.
	for round := 0; round < 40; round++ {
		d := tracedCalls(t, p, 1)
		var siblings *obs.SpanData
		d.Walk(func(sd *obs.SpanData) {
			if sd.Name != "rpc-worker" {
				return
			}
			attempts := 0
			for _, c := range sd.Children {
				if c.Name == "rpc-attempt" {
					attempts++
				}
			}
			if attempts >= 2 {
				siblings = sd
			}
		})
		if siblings != nil {
			// Attempts must be numbered in order under one worker span.
			first, second := siblings.Children[0], siblings.Children[1]
			if first.Attrs["attempt"] != "1" || second.Attrs["attempt"] != "2" {
				t.Fatalf("sibling attempts mis-numbered: %v, %v", first.Attrs, second.Attrs)
			}
			if first.Attrs["error"] == "" {
				t.Fatal("first of two attempts should carry the error that forced the retry")
			}
			return
		}
		// A worker marked unhealthy would reorder the candidates; reset.
		for _, c := range p.Callers() {
			c.SetHealthy(true)
		}
	}
	t.Fatal("no trace showed sibling rpc-attempt spans after 40 calls")
}
