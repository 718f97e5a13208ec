package cluster

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/fastquery"
	"repro/internal/obs"
)

// This file adds a generic single-call primitive to the pool, used by the
// sharded serving tier: one RPC against a primary worker with failover
// across its replicas, optionally hedged — after a stagger delay a second
// replica is raced against the slow first attempt, the Google "tail at
// scale" trade of a little extra work for a much tighter p99.

// remoteTracer is implemented by replies that carry the worker-side span
// tree of a traced call. CallOn grafts it under the rpc-worker span of the
// attempt that produced it, so the remote work sits beside the wall time
// of the attempt that did it.
type remoteTracer interface {
	RemoteTrace() *obs.SpanData
}

// graftRemote attaches a traced reply's worker-side span tree to sp.
func graftRemote(sp *obs.Span, reply any) {
	if rt, ok := reply.(remoteTracer); ok {
		sp.AttachRemote(rt.RemoteTrace())
	}
}

// CallOn makes one RPC with the pool's resilience machinery: the primary
// (by index, ring order) is tried first, then the remaining healthy
// workers per MaxFailovers. With hedge > 0 and more than one candidate,
// attempts are raced: each additional replica is launched when the stagger
// elapses (or immediately when an attempt fails), and the first success
// wins. Replies of losing attempts are discarded — each attempt decodes
// into its own value, and only the winner is copied into reply.
func (p *Pool) CallOn(ctx context.Context, primary int, method string, args, reply any, hedge time.Duration) error {
	cands := p.candidates(primary % len(p.callers))
	if hedge > 0 && len(cands) > 1 {
		return p.callHedged(ctx, cands, method, args, reply, hedge)
	}
	var lastErr error
	attempted := 0
	for k, c := range cands {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		if !c.br.Allow() {
			// Known-dead replica: skip in microseconds, no dial timeout.
			lastErr = fmt.Errorf("cluster: %s: %w", c.Addr(), ErrBreakerOpen)
			continue
		}
		if attempted > 0 && !p.budget.Spend() {
			// Failover is an extra attempt; it spends the retry budget.
			c.br.Drop()
			return lastErr
		}
		wctx, wsp := obs.StartSpan(ctx, "rpc-worker")
		wsp.SetAttr("worker", c.Addr())
		if k > 0 {
			p.ctr.failovers.Add(1)
			metricFailovers.Inc()
			wsp.SetAttr("failover", "true")
		}
		cs, err := c.CallWithStatsCtx(wctx, method, args, reply)
		attempted++
		p.account(cs)
		if err != nil {
			wsp.SetAttr("error", err.Error())
		} else {
			graftRemote(wsp, reply)
		}
		wsp.End()
		c.breakerRecord(err, ctx.Err() != nil)
		if err == nil {
			return nil
		}
		lastErr = err
		if fastquery.IsFatal(err) {
			// The request itself is bad; every replica would refuse it.
			return err
		}
		if fastquery.IsExhausted(err) {
			// The deadline budget is spent; no replica has more time to give.
			return err
		}
		if ctx.Err() != nil {
			// The attempt died with the caller, not the worker.
			return lastErr
		}
		c.SetHealthy(false)
	}
	return lastErr
}

// account folds one attempt's CallStats into the pool counters and the
// process-wide metrics.
func (p *Pool) account(cs CallStats) {
	p.ctr.calls.Add(int64(cs.Attempts))
	p.ctr.retries.Add(int64(cs.Attempts - 1))
	p.ctr.timeouts.Add(int64(cs.Timeouts))
	p.ctr.reconnects.Add(int64(cs.Reconnects))
	metricRPCCalls.Add(uint64(cs.Attempts))
	if cs.Attempts > 1 {
		metricRetries.Add(uint64(cs.Attempts - 1))
	}
	metricTimeouts.Add(uint64(cs.Timeouts))
	metricReconnects.Add(uint64(cs.Reconnects))
}

// callHedged races staggered attempts across the candidate replicas.
func (p *Pool) callHedged(ctx context.Context, cands []*Caller, method string, args, reply any, hedge time.Duration) error {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		reply any
		err   error
		c     *Caller
	}
	// Buffered to the attempt count so losers never block after the
	// winner returns and this function has moved on.
	results := make(chan attempt, len(cands))
	run := func(k int, c *Caller) {
		go func() {
			wctx, wsp := obs.StartSpan(hctx, "rpc-worker")
			wsp.SetAttr("worker", c.Addr())
			if k > 0 {
				wsp.SetAttr("hedge", "true")
			}
			r := reflect.New(reflect.TypeOf(reply).Elem()).Interface()
			cs, err := c.CallWithStatsCtx(wctx, method, args, r)
			p.account(cs)
			if err != nil {
				wsp.SetAttr("error", err.Error())
			} else {
				graftRemote(wsp, r)
			}
			wsp.End()
			c.breakerRecord(err, hctx.Err() != nil)
			results <- attempt{r, err, c}
		}()
	}
	launched, started, pending := 0, 0, 0
	var lastErr error
	// launchNext starts the next candidate whose breaker admits the
	// attempt. Every attempt beyond the first spends the shared retry
	// budget; an empty budget stops hedging and failover alike.
	launchNext := func() bool {
		for launched < len(cands) {
			k := launched
			c := cands[k]
			if !c.br.Allow() {
				lastErr = fmt.Errorf("cluster: %s: %w", c.Addr(), ErrBreakerOpen)
				launched++
				continue
			}
			if started > 0 && !p.budget.Spend() {
				c.br.Drop()
				return false
			}
			launched++
			started++
			pending++
			run(k, c)
			return true
		}
		return false
	}
	if !launchNext() {
		// Every replica's breaker refused the first attempt.
		return lastErr
	}
	timer := time.NewTimer(hedge)
	defer timer.Stop()
	for pending > 0 {
		select {
		case <-timer.C:
			if launchNext() {
				p.ctr.hedges.Add(1)
				metricHedges.Inc()
				timer.Reset(hedge)
			}
		case res := <-results:
			pending--
			if res.err == nil {
				reflect.ValueOf(reply).Elem().Set(reflect.ValueOf(res.reply).Elem())
				return nil
			}
			lastErr = res.err
			if fastquery.IsFatal(res.err) || fastquery.IsExhausted(res.err) {
				return res.err
			}
			if hctx.Err() == nil {
				res.c.SetHealthy(false)
			}
			if launchNext() {
				// A failed attempt frees its slot to the next replica
				// immediately; no need to wait out the stagger.
				p.ctr.failovers.Add(1)
				metricFailovers.Inc()
			}
		case <-ctx.Done():
			if lastErr != nil {
				return lastErr
			}
			return ctx.Err()
		}
	}
	return lastErr
}
