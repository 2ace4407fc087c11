package perf_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mph/internal/mpi/perf"
	"mph/internal/mpirun"
)

// FuzzDebugRequest asserts that a debug request for a rank — any bytes a
// client sends the launcher's /rank/R/ endpoints, where a rank's perf
// variables and goroutine stacks are asked for — never panics the handler
// and is answered only as the endpoints document: a 200 only for a GET of
// the one rank that has reported, carrying that rank's Snapshot; a 502 only
// for a stacks ask made outside a running job; otherwise a redirect to the
// clean path, a 404 or a 405.
func FuzzDebugRequest(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("GET"))
	f.Add([]byte("GET  HTTP/1.1\n\n"))
	f.Add([]byte("GET /rank/0/perf HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("GET /rank/0/perf HTTP/1.1")) // unterminated
	f.Add([]byte("GET /rank/1/perf HTTP/1.0\n\n"))
	f.Add([]byte("GET /rank/99999999999999999999/perf HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET /rank/-1/perf?debug=2 HTTP/1.1\n\n"))
	f.Add([]byte("POST /rank/0/perf HTTP/1.1\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("GET http://host/rank/0/stacks HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET /rank/0/../../debug/pprof/profile?seconds=30 HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET /rank/" + strings.Repeat("a", 5<<10) + "/perf HTTP/1.1\r\n\r\n"))

	rank := perf.NewRank(0, 2)
	rank.SetComponent("coupler")
	tel, err := mpirun.NewTelemetry(2, 0)
	if err != nil {
		f.Fatal(err)
	}
	tel.Ingest(0, rank.Snapshot(), 1, false, time.Now())
	h := tel.Handler()

	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(line)))
		if err != nil || !strings.HasPrefix(req.URL.Path, "/rank/") {
			return // the server answers 400 before any handler; other paths ask no rank
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
			var s perf.Snapshot
			if err := json.Unmarshal(w.Body.Bytes(), &s); err != nil || s.WorldRank != 0 || s.Component != "coupler" {
				t.Errorf("200 for %q is not rank 0's snapshot (%v): %.200q", line, err, w.Body.String())
			}
			if req.Method != http.MethodGet && req.Method != http.MethodHead {
				t.Errorf("200 for method %q", req.Method)
			}
		case http.StatusBadGateway:
			if !strings.HasSuffix(req.URL.Path, "/stacks") || !strings.Contains(w.Body.String(), "no job is running") {
				t.Errorf("502 for %q: %.200q", line, w.Body.String())
			}
		case http.StatusMovedPermanently, http.StatusNotFound, http.StatusMethodNotAllowed:
		default:
			t.Errorf("status %d from %q", w.Code, line)
		}
	})
}
