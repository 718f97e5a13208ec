// Package faultnet wraps net.Listener and net.Conn with deterministic
// fault injection — connection drops, injected I/O errors and fixed or
// random latency, each with a configurable probability — so the cluster
// transport's retry and failover machinery, and the planner's partial
// merges above it, can be exercised
// under repeatable adverse conditions (the fabbench approach: prove the
// resilience code works by making the network misbehave on demand).
//
// All randomness comes from one seeded RNG, so a given seed replays the
// same fault schedule relative to the sequence of I/O operations.
package faultnet

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every synthetic fault, so tests can tell
// injected failures from real ones with errors.Is.
var ErrInjected = errors.New("faultnet: injected fault")

// Logf is where Wrap logs each listener's seed and fault schedule, so any
// chaos run can be replayed from its output. Tests may redirect it.
var Logf = log.Printf

// Config sets the fault mix. The zero value injects nothing.
type Config struct {
	Seed           int64         // RNG seed; 0 behaves as 1
	DropProb       float64       // per-I/O-op probability of abruptly closing the conn
	ErrProb        float64       // per-I/O-op probability of returning an error (conn left open)
	AcceptDropProb float64       // probability a freshly accepted conn is closed immediately
	Latency        time.Duration // fixed delay added to every I/O op
	LatencyJitter  time.Duration // extra uniform-random delay in [0, LatencyJitter)
	StallProb      float64       // per-I/O-op probability of stalling Stall, then answering normally
	Stall          time.Duration // stall duration for StallProb (default 1s)
	Quiet          bool          // suppress the seed/schedule log line at Wrap
}

// String renders the schedule compactly for the Wrap log line.
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	add := func(name string, on bool, v any) {
		if on {
			parts = append(parts, fmt.Sprintf("%s=%v", name, v))
		}
	}
	add("drop", c.DropProb > 0, c.DropProb)
	add("err", c.ErrProb > 0, c.ErrProb)
	add("accept-drop", c.AcceptDropProb > 0, c.AcceptDropProb)
	add("latency", c.Latency > 0, c.Latency)
	add("jitter", c.LatencyJitter > 0, c.LatencyJitter)
	add("stall", c.StallProb > 0, fmt.Sprintf("%v@%v", c.StallProb, c.Stall))
	if len(parts) == 1 {
		parts = append(parts, "clean")
	}
	return strings.Join(parts, " ")
}

// Stats counts the faults a Listener has injected.
type Stats struct {
	Accepted    int64 // connections accepted
	AcceptDrops int64 // connections killed at accept
	Drops       int64 // connections killed mid-operation
	Errors      int64 // injected I/O errors
	Delays      int64 // operations delayed
	Stalls      int64 // operations stalled (then served)
	Partitions  int64 // operations that blocked on a partition
	Corrupts    int64 // writes corrupted
	Truncates   int64 // writes truncated (conn closed mid-reply)
	Killed      bool  // Kill was called
}

// Listener wraps an inner listener, handing out fault-injecting conns.
type Listener struct {
	inner net.Listener
	cfg   Config

	rmu sync.Mutex
	rng *rand.Rand

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	killed bool

	// Dynamic fault switches, flipped at runtime by a chaos schedule.
	partitioned atomic.Bool  // blackhole: I/O blocks until healed or the conn dies
	corrupt     atomic.Bool  // replies get a flipped byte (decode fails client-side)
	truncate    atomic.Bool  // replies are cut mid-write and the conn closed
	stall       atomic.Int64 // per-op stall in nanoseconds; 0 = off

	accepted, acceptDrops, drops, errs, delays atomic.Int64
	stalls, partitions, corrupts, truncates    atomic.Int64
}

// Wrap builds a fault-injecting listener around l. The seed and fault
// schedule are logged (see Logf) so any run can be replayed.
func Wrap(l net.Listener, cfg Config) *Listener {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	cfg.Seed = seed
	if cfg.StallProb > 0 && cfg.Stall <= 0 {
		cfg.Stall = time.Second
	}
	if !cfg.Quiet {
		Logf("faultnet: %s schedule: %s", l.Addr(), cfg)
	}
	return &Listener{
		inner: l,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// SetPartitioned opens or heals a network partition: while partitioned,
// every I/O op on every conn blocks — bytes go nowhere, connections do not
// reset — until the partition heals or the conn is closed (e.g. by the
// peer's timeout machinery).
func (l *Listener) SetPartitioned(v bool) { l.partitioned.Store(v) }

// SetCorrupt turns reply corruption on or off: while on, every write has a
// byte flipped, so the peer's decoder fails on a well-delivered but
// garbage reply.
func (l *Listener) SetCorrupt(v bool) { l.corrupt.Store(v) }

// SetTruncate turns reply truncation on or off: while on, every write
// delivers only a prefix and then kills the conn — the peer sees a reply
// cut off mid-stream.
func (l *Listener) SetTruncate(v bool) { l.truncate.Store(v) }

// SetStall sets a dynamic per-op stall (0 turns it off): every I/O op goes
// quiet for d and then proceeds normally — slow, not dead, the shape that
// fools timeout-only failure detectors.
func (l *Listener) SetStall(d time.Duration) { l.stall.Store(int64(d)) }

// Accept accepts from the inner listener and wraps the conn. With
// AcceptDropProb the conn is returned already closed, so the peer's first
// use fails — modelling a node that dies during connection setup.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	fc := &Conn{Conn: c, l: l}
	l.accepted.Add(1)
	l.mu.Lock()
	killed := l.killed
	if !killed {
		l.conns[fc] = struct{}{}
	}
	l.mu.Unlock()
	if killed {
		c.Close()
		return nil, net.ErrClosed
	}
	if l.roll(l.cfg.AcceptDropProb) {
		l.acceptDrops.Add(1)
		fc.Close()
	}
	return fc, nil
}

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Close closes the inner listener; live connections keep running (use
// Kill to take the whole node down).
func (l *Listener) Close() error { return l.inner.Close() }

// Kill simulates the node dying: the listener and every live connection
// are closed at once, and future accepts fail.
func (l *Listener) Kill() {
	l.mu.Lock()
	l.killed = true
	conns := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	l.inner.Close()
	for _, c := range conns {
		c.Close()
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (l *Listener) Stats() Stats {
	l.mu.Lock()
	killed := l.killed
	l.mu.Unlock()
	return Stats{
		Accepted:    l.accepted.Load(),
		AcceptDrops: l.acceptDrops.Load(),
		Drops:       l.drops.Load(),
		Errors:      l.errs.Load(),
		Delays:      l.delays.Load(),
		Stalls:      l.stalls.Load(),
		Partitions:  l.partitions.Load(),
		Corrupts:    l.corrupts.Load(),
		Truncates:   l.truncates.Load(),
		Killed:      killed,
	}
}

func (l *Listener) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	l.rmu.Lock()
	defer l.rmu.Unlock()
	return l.rng.Float64() < p
}

func (l *Listener) delay() time.Duration {
	d := l.cfg.Latency
	if l.cfg.LatencyJitter > 0 {
		l.rmu.Lock()
		d += time.Duration(l.rng.Int63n(int64(l.cfg.LatencyJitter)))
		l.rmu.Unlock()
	}
	return d
}

func (l *Listener) untrack(c *Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// Conn is a fault-injecting connection. Each Read/Write first sleeps the
// configured latency, then rolls for a drop (conn closed, error returned)
// and an injected error (conn left open).
type Conn struct {
	net.Conn
	l      *Listener
	closed atomic.Bool
}

func (c *Conn) inject(op string) error {
	l := c.l
	// A partition blackholes the op: block — no bytes, no reset — until
	// the partition heals or the conn is torn down (the peer's deadline
	// machinery closing it is the usual exit).
	if l.partitioned.Load() {
		l.partitions.Add(1)
		for l.partitioned.Load() {
			if c.closed.Load() {
				return fmt.Errorf("faultnet: %s: closed during partition: %w", op, ErrInjected)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if d := time.Duration(l.stall.Load()); d > 0 {
		l.stalls.Add(1)
		time.Sleep(d)
	} else if l.roll(l.cfg.StallProb) {
		// Stall-then-answer: the conn goes quiet long enough to look dead,
		// then serves the op normally — the shape that tricks timeout-only
		// failure detectors into duplicating work.
		l.stalls.Add(1)
		time.Sleep(l.cfg.Stall)
	}
	if d := l.delay(); d > 0 {
		l.delays.Add(1)
		time.Sleep(d)
	}
	if l.roll(l.cfg.DropProb) {
		l.drops.Add(1)
		c.Close()
		return fmt.Errorf("faultnet: %s: connection dropped: %w", op, ErrInjected)
	}
	if l.roll(l.cfg.ErrProb) {
		l.errs.Add(1)
		return fmt.Errorf("faultnet: %s: %w", op, ErrInjected)
	}
	return nil
}

func (c *Conn) Read(p []byte) (int, error) {
	if err := c.inject("read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	if err := c.inject("write"); err != nil {
		return 0, err
	}
	l := c.l
	if l.truncate.Load() && len(p) > 0 {
		// Deliver a prefix, then die mid-reply: the peer's decoder sees a
		// stream cut off partway through a message.
		l.truncates.Add(1)
		n, _ := c.Conn.Write(p[:(len(p)+1)/2])
		c.Close()
		return n, fmt.Errorf("faultnet: write truncated: %w", ErrInjected)
	}
	if l.corrupt.Load() && len(p) > 0 {
		// Flip one byte mid-buffer in a copy (the caller owns p): the bytes
		// arrive intact by TCP's lights but the payload is garbage.
		l.corrupts.Add(1)
		q := make([]byte, len(p))
		copy(q, p)
		q[len(q)/2] ^= 0xff
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

// Close closes the underlying conn once and untracks it.
func (c *Conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.l.untrack(c)
	return c.Conn.Close()
}
