package perf

import (
	"bytes"
	"io"
	"net"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mph/internal/sock"
)

// rawRequest writes req to a fresh connection to the endpoint and returns
// everything the server sent before it hung up.
func rawRequest(t *testing.T, srv *DebugServer, req string) string {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the reply to %.40q: %v", req, err)
	}
	return string(reply)
}

// TestDebugResponder drives the responder over raw connections: what it
// serves, and every way it refuses.
func TestDebugResponder(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRank(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(target string) string { return "GET " + target + " HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n" }
	cases := []struct {
		name, req  string
		status     string
		bodyPrefix string // after the blank line
		bodyHas    string
	}{
		{name: "root is the snapshot", req: get("/"), status: "200 OK", bodyPrefix: "{\n", bodyHas: `"world_rank": 0`},
		{name: "perf is the snapshot", req: get("/perf"), status: "200 OK", bodyHas: `"peak_rss_kb"`},
		{name: "goroutine dump", req: get("/debug/pprof/goroutine?debug=2"), status: "200 OK", bodyHas: "goroutine "},
		{name: "heap is a gzip-framed profile", req: get("/debug/pprof/heap"), status: "200 OK", bodyPrefix: "\x1f\x8b"},
		{name: "cmdline", req: get("/debug/pprof/cmdline"), status: "200 OK", bodyHas: ".test"},
		{name: "bare HTTP/1.0 request line", req: "GET /perf HTTP/1.0\n\n", status: "200 OK", bodyPrefix: "{\n"},
		{name: "unknown path", req: get("/metrics"), status: "404 Not Found"},
		{name: "unknown profile", req: get("/debug/pprof/nosuch"), status: "404 Not Found"},
		{name: "profile index is gone", req: get("/debug/pprof/"), status: "404 Not Found"},
		{name: "non-GET", req: "POST /perf HTTP/1.1\r\nContent-Length: 0\r\n\r\n", status: "405 Method Not Allowed"},
		{name: "malformed request line", req: "GET /perf\r\n\r\n", status: "400 Bad Request"},
		{name: "absolute-form target", req: get("http://x/perf"), status: "400 Bad Request"},
		{name: "5 KiB request line", req: get("/" + strings.Repeat("a", 5<<10)), status: "400 Bad Request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reply := rawRequest(t, srv, c.req)
			head, body, ok := strings.Cut(reply, "\r\n\r\n")
			if !ok {
				t.Fatalf("no header block in %.80q", reply)
			}
			if want := "HTTP/1.0 " + c.status + "\r\n"; !strings.HasPrefix(head+"\r\n", want) {
				t.Fatalf("status line %.40q, want %q", head, want)
			}
			if !strings.Contains(head, "Connection: close") {
				t.Errorf("header block %q lacks Connection: close", head)
			}
			if !strings.HasPrefix(body, c.bodyPrefix) {
				t.Errorf("body starts %.16q, want prefix %q", body, c.bodyPrefix)
			}
			if !strings.Contains(body, c.bodyHas) {
				t.Errorf("body lacks %q: %.200q", c.bodyHas, body)
			}
		})
	}
}

// TestDebugResponderDeadline pins the slow-client bound: a connection that
// never finishes its request line is closed by the read deadline, with no
// reply, and the endpoint keeps serving.
func TestDebugResponderDeadline(t *testing.T) {
	ln, err := sock.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveDebug(ln, NewRank(0, 1), 100*time.Millisecond)
	defer srv.Close()

	start := time.Now()
	if reply := rawRequest(t, srv, "GET /perf HT"); reply != "" {
		t.Errorf("unfinished request line was answered: %q", reply)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 5*time.Second {
		t.Errorf("connection closed after %v, want the 100ms deadline", d)
	}
	if reply := rawRequest(t, srv, "GET /perf HTTP/1.0\r\n\r\n"); !strings.HasPrefix(reply, "HTTP/1.0 200 OK\r\n") {
		t.Errorf("endpoint stopped serving after a timed-out client: %.60q", reply)
	}
}

// TestDebugServerCloseDropsProfile pins Close against the longest request
// there is: a 30 s CPU profile in flight is cut short, its connection
// dropped, and the profiler released, before Close returns.
func TestDebugServerCloseDropsProfile(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRank(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Give the handler a moment to get into the profile; the assertions hold
	// either way, they only exercise more of Close once it is in flight.
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Errorf("client not hung up on after Close: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Close took %v with a 30 s profile in flight", d)
	}
	var sink bytes.Buffer
	if err := pprof.StartCPUProfile(&sink); err != nil {
		t.Fatalf("CPU profiler still held after Close: %v", err)
	}
	pprof.StopCPUProfile()
}
