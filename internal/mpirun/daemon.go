package mpirun

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"mph/internal/sock"
	"mph/internal/wire"
)

// Daemon is the block protocol served on a loopback TCP port by a server in
// the launcher's own process. It runs any argv a connection sends it, so it
// never listens off the machine: it is the carrier the benchmark's placed
// workload launches through, reached by NewDaemonSpawner.
type Daemon struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewDaemon starts a daemon listener on listen, whose host must be a
// loopback IP literal ("127.0.0.1:0" for an ephemeral port). Call Serve to
// accept launchers.
func NewDaemon(listen string) (*Daemon, error) {
	if ip, _, err := sock.SplitAddr(listen); err != nil || !ip.IsLoopback() {
		return nil, fmt.Errorf("mpirun: daemon listen %s: not a loopback IP address", listen)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("mpirun: daemon listen %s: %w", listen, err)
	}
	return &Daemon{ln: ln, conns: make(map[net.Conn]bool)}, nil
}

// NewDaemonSpawner returns the spawner that sends every block to the one
// Daemon at addr, whatever the block's host label; the second parameter is
// ignored.
func NewDaemonSpawner(addr string, _ int) Spawner {
	return Spawner{name: "daemon", dial: func(ctx context.Context, _ string) (io.ReadWriteCloser, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}}
}

// Addr returns the daemon's bound control address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Serve accepts launcher connections until Close. Each connection is
// handled concurrently and independently; Serve returns nil after Close,
// or the accept error otherwise.
func (d *Daemon) Serve() error {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = true
		d.wg.Add(1)
		d.mu.Unlock()
		go func() {
			defer d.wg.Done()
			serveConn(conn)
			d.mu.Lock()
			delete(d.conns, conn)
			d.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops accepting, tears down every live connection (killing the
// blocks they spawned — ranks never outlive their control connection), and
// waits for the handlers to finish.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	err := d.ln.Close()
	for conn := range d.conns {
		conn.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	return err
}

// ServeAgent serves exactly one block-protocol connection on this process's
// stdin/stdout and returns when the launcher hangs up — the body of "mphrun
// agent", which an exec or ssh spawner starts once per host. Diagnostics go
// to stderr; stdout belongs to the protocol.
func ServeAgent() {
	ignoreBrokenPipe()
	serveConn(struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout})
}

// serveConn is the block-protocol server, the same over every carrier:
// requests in, events out, and a guaranteed kill of everything the
// connection spawned once it drops.
func serveConn(rw io.ReadWriter) {
	out := &sender{w: rw}
	// Event write errors are ignored: a dead launcher shows up as a read
	// error below.
	send := func(ev blockEvent) { _ = out.event(ev) }
	var run *blockRun
	cleanup := func() {}
	defer func() {
		if run != nil {
			run.kill(-1)
			run.wait()
		}
		cleanup()
	}()
	for {
		var req blockRequest
		if err := readRequest(rw, &req); err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				send(blockEvent{Kind: kindError, Text: fmt.Sprintf("bad request: %v", err)})
			}
			return // EOF, torn connection or garbage: the kill lease expires
		}
		switch {
		case req.Kind == kindPing:
			send(blockEvent{Kind: kindPong})
		case req.Kind == kindKill:
			if run != nil {
				run.kill(req.Rank)
			}
		case run != nil:
			send(blockEvent{Kind: kindError, Text: "connection already spawned a block"})
			return
		default:
			registration := ""
			if req.Spawn.Regdata != "" {
				path, remove, err := materializeRegistration(req.Spawn.Regdata)
				if err != nil {
					send(blockEvent{Kind: kindError, Text: err.Error()})
					return
				}
				registration, cleanup = path, remove
			}
			run = startBlock(&req.Spawn, registration, send)
		}
	}
}
