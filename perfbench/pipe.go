package main

import (
	"context"
	"net"
	"sync"
)

// pipeListener is a net.Listener whose connections are in-memory pipes
// (net.Pipe). The serve workload runs the daemon's HTTP handler behind a
// net/http server on it and dials it from its own HTTP client, so every
// request and response still crosses HTTP/1.1 encoding and parsing, but no
// socket is opened: the benchmark runs where loopback networking is not
// available, as in a network-isolated sandbox, and the kernel's socket
// path stays out of the measurement.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial is an http.Transport DialContext: it hands one end of a new pipe to
// Accept and returns the other.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "perfbench" }
