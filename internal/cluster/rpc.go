package cluster

import (
	"net"
	"net/rpc"
	"sync"
)

// This file provides the server side of the RPC transport: a net/rpc
// server that tracks its listeners and connections so a node can be torn
// down completely. Every server answers the "Worker.Ping" health probe
// that Pool's probe loop relies on; the work itself is served by
// receivers registered alongside it (the shard worker's "Shard" fragment
// service).

// PingArgs is the (empty) request of the Worker.Ping heartbeat.
type PingArgs struct{}

// PingReply acknowledges a heartbeat.
type PingReply struct {
	OK bool
}

// pingService is the receiver registered under the wire name "Worker". The
// name predates the fragment protocol and is kept so Caller.Probe and
// older peers keep interoperating across a rolling upgrade.
type pingService struct{}

// Ping is a lightweight liveness heartbeat used by the pool to probe
// unhealthy workers back into the failover rotation.
func (pingService) Ping(args *PingArgs, reply *PingReply) error {
	reply.OK = true
	return nil
}

// Server serves RPC receivers over any number of listeners, tracking every
// accepted connection so Close can tear the whole node down — in-flight
// ServeConn goroutines and their conns do not outlive the server.
type Server struct {
	rpcSrv *rpc.Server

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewServer returns a server answering Worker.Ping, ready for more
// receivers (RegisterName) and listeners (Serve).
func NewServer() *Server {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", pingService{}); err != nil {
		panic("cluster: register ping service: " + err.Error())
	}
	return &Server{rpcSrv: srv, conns: make(map[net.Conn]struct{})}
}

// RegisterName registers an additional RPC receiver on the server under
// the given service name, so the node serves its work protocol over the
// same listeners as the health ping.
func (s *Server) RegisterName(name string, rcvr any) error {
	return s.rpcSrv.RegisterName(name, rcvr)
}

// Serve accepts and serves connections on the listener in a background
// goroutine until the listener or the server is closed.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rpcSrv.ServeConn(conn)
				s.untrack(conn)
				conn.Close()
			}()
		}
	}()
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close stops the listeners, closes every in-flight connection and waits
// for the serving goroutines to drain. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	s.closeConns()
	s.wg.Wait()
}
