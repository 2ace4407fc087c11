package perf

import (
	"strings"
	"testing"
)

// FuzzDebugRequest asserts the debug endpoint's request-line parser — the
// first code any byte from the network reaches — never panics and only ever
// hands the responder a clean path: rooted, with no query and no whitespace
// in it, from a GET line that was terminated.
func FuzzDebugRequest(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("GET"))
	f.Add([]byte("GET  HTTP/1.1\n"))
	f.Add([]byte("GET /perf HTTP/1.1\r\n"))
	f.Add([]byte("GET /perf HTTP/1.1")) // unterminated: what an over-long line looks like
	f.Add([]byte("GET /debug/pprof/goroutine?debug=2 HTTP/1.0\n"))
	f.Add([]byte("GET /debug/pprof/profile?seconds=99999999999999999999&x HTTP/1.1\r\n"))
	f.Add([]byte("GET /a?b?c=1&&=&debug= HTTP/1.1\n"))
	f.Add([]byte("POST / HTTP/1.1\r\n"))
	f.Add([]byte("GET http://host/perf HTTP/1.1\r\n"))
	f.Add([]byte("GET /perf HTTP/2\r\n"))
	f.Add([]byte("GET /" + strings.Repeat("a", debugLineMax) + " HTTP/1.1\r\n"))
	f.Fuzz(func(t *testing.T, line []byte) {
		path, query, status := parseDebugRequest(line)
		queryInt(query, "debug") // must not panic
		queryInt(query, "seconds")
		switch status {
		case 0:
			if !strings.HasPrefix(path, "/") || strings.ContainsAny(path, "? \t\r\n") {
				t.Errorf("accepted path %q from %q", path, line)
			}
			if !strings.HasPrefix(string(line), "GET") || line[len(line)-1] != '\n' {
				t.Errorf("accepted line %q", line)
			}
		case 400, 405:
			if path != "" || query != "" {
				t.Errorf("status %d with path %q query %q", status, path, query)
			}
		default:
			t.Errorf("status %d from %q", status, line)
		}
	})
}
