package perf

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"mph/internal/sock"
)

// DebugAddr resolves the per-rank listen address for a base EnvDebugAddr
// value, "ip:port" or ":port": a non-zero port is offset by the world rank so
// every process of a job gets its own endpoint on one host; port 0 asks the
// kernel for an ephemeral port per rank. A host name is an error.
func DebugAddr(base string, rank int) (string, error) {
	ip, port, err := sock.SplitAddr(base)
	if err != nil {
		return "", fmt.Errorf("perf: bad %s %q: %w", EnvDebugAddr, base, err)
	}
	if port != 0 {
		if int(port)+rank > 65535 {
			return "", fmt.Errorf("perf: %s port %d + rank %d exceeds 65535", EnvDebugAddr, port, rank)
		}
		port += uint16(rank)
	}
	return sock.JoinAddr(ip, port), nil
}

// The debug endpoint is a GET-only HTTP/1.0 responder over a plain listener:
// one request per connection, the reply delimited by the close. That is all
// curl and "go tool pprof http://…" need, and it keeps net/http (and the TLS
// stack behind it) out of every executable that links the rank side; the
// listener is a sock one, so net stays out too.
const (
	debugLineMax   = 4 << 10         // request-line bound; longer is a 400
	debugIOTimeout = 5 * time.Second // whole-request read deadline, write deadline
	debugMaxConns  = 8               // connections served at once; more wait in the backlog
)

// DebugServer is one rank's running debug endpoint. Close shuts the whole
// server down — listener and active connections, a profile in flight
// included — so a Finalize that stops the transport leaks nothing.
type DebugServer struct {
	ln     *sock.Listener
	rank   *Rank
	ctx    context.Context // canceled by Close
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Addr returns the actual bound address of the endpoint.
func (s *DebugServer) Addr() string { return s.ln.Addr() }

// Close stops the endpoint: the listener closes, in-flight connections are
// torn down and their handlers waited for. Safe to call more than once.
func (s *DebugServer) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.wg.Wait()
	if errors.Is(err, os.ErrClosed) {
		return nil
	}
	return err
}

// Serve starts the debug endpoint on a per-rank address from DebugAddr and
// returns the running server (close it to stop serving).
// Serving runs on its own goroutines; errors after startup are ignored (the
// endpoint is best-effort diagnostics). Paths: / and /perf (the Snapshot as
// indented JSON, carrying the rank's identity so a scrape is attributable),
// /debug/pprof/<profile>[?debug=N] for every runtime/pprof profile,
// /debug/pprof/profile?seconds=N, /debug/pprof/trace?seconds=N and
// /debug/pprof/cmdline.
func Serve(addr string, r *Rank) (*DebugServer, error) {
	ln, err := sock.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("perf: debug listen on %s: %w", addr, err)
	}
	return serveDebug(ln, r, debugIOTimeout), nil
}

// serveDebug runs the endpoint on ln, each connection on its own goroutine
// and bounded by timeout, until Close.
func serveDebug(ln *sock.Listener, r *Rank, timeout time.Duration) *DebugServer {
	s := &DebugServer{ln: ln, rank: r}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		slots := make(chan struct{}, debugMaxConns) // counting semaphore
		for {
			select {
			case slots <- struct{}{}:
			case <-s.ctx.Done():
				return
			}
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer func() { <-slots }()
				defer conn.Close()
				defer context.AfterFunc(s.ctx, func() { conn.Close() })()
				s.serveConn(conn, timeout)
			}()
		}
	}()
	return s
}

// parseDebugRequest splits an HTTP request line into path and raw query.
// status is 0 for a servable GET, 405 for any other method and 400 for a
// line that is unterminated (over-long) or not "METHOD /target HTTP/1.x".
func parseDebugRequest(line []byte) (path, query string, status int) {
	f := strings.Fields(string(line))
	if len(line) == 0 || line[len(line)-1] != '\n' || len(f) != 3 ||
		!strings.HasPrefix(f[1], "/") || !strings.HasPrefix(f[2], "HTTP/1.") {
		return "", "", 400
	}
	if f[0] != "GET" {
		return "", "", 405
	}
	path, query, _ = strings.Cut(f[1], "?")
	return path, query, 0
}

// queryInt returns the integer value of key in a raw query, 0 if absent or
// malformed.
func queryInt(query, key string) (n int) {
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, key+"="); ok {
			n, _ = strconv.Atoi(v)
		}
	}
	return n
}

var debugStatusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed", 500: "Internal Server Error"}

// serveConn answers one request. A peer that never finishes its request
// line is dropped by the read deadline without a reply.
func (s *DebugServer) serveConn(conn *sock.Conn, timeout time.Duration) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	br := bufio.NewReaderSize(conn, debugLineMax)
	line, err := br.ReadSlice('\n')
	if err != nil && err != bufio.ErrBufferFull {
		return
	}
	path, query, status := parseDebugRequest(line)
	// Consume the header block (and the tail of an over-long line): closing
	// with unread input would reset the connection under the reply.
	for err == bufio.ErrBufferFull || (err == nil && len(line) > 2) {
		line, err = br.ReadSlice('\n')
	}
	w := bufio.NewWriter(conn)
	defer w.Flush()
	reply := func(code int, ctype string) {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		fmt.Fprintf(w, "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nConnection: close\r\n\r\n", code, debugStatusText[code], ctype)
		if code != 200 {
			fmt.Fprintf(w, "%d %s\n", code, debugStatusText[code])
		}
	}
	const text, binary = "text/plain; charset=utf-8", "application/octet-stream"
	// A path outside /debug/pprof/ keeps its leading slash and names no profile.
	name := strings.TrimPrefix(path, "/debug/pprof/")
	switch p := pprof.Lookup(name); {
	case status != 0:
		reply(status, text)
	case path == "/" || path == "/perf":
		reply(200, "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.rank.Snapshot()) //nolint:errcheck // a Snapshot always marshals; write errors end the connection
	case name == "cmdline":
		reply(200, text)
		w.WriteString(strings.Join(os.Args, "\x00"))
	case name == "profile" || name == "trace":
		// Same defaults as net/http/pprof: a 30 s CPU profile, a 1 s trace.
		start, stop, seconds := pprof.StartCPUProfile, pprof.StopCPUProfile, 30
		if name == "trace" {
			start, stop, seconds = trace.Start, trace.Stop, 1
		}
		if n := queryInt(query, "seconds"); n > 0 {
			seconds = n
		}
		reply(200, binary)
		if err := start(w); err != nil { // another profile of this kind is running
			w.Reset(conn)
			reply(500, text)
			return
		}
		d := time.Duration(seconds) * time.Second
		conn.SetWriteDeadline(time.Now().Add(d + timeout))
		select {
		case <-time.After(d):
		case <-s.ctx.Done():
		}
		stop()
	case p == nil:
		reply(404, text)
	default:
		debug, ctype := queryInt(query, "debug"), binary
		if debug > 0 {
			ctype = text
		}
		reply(200, ctype)
		p.WriteTo(w, debug) //nolint:errcheck // write errors end the connection
	}
}
