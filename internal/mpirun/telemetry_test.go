package mpirun

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
)

// snapFor builds a minimal snapshot for aggregator tests.
func snapFor(rank int, sent, recv uint64) perf.Snapshot {
	return perf.Snapshot{
		WorldRank:     rank,
		Component:     "comp",
		Host:          "node-a",
		TotalSentMsgs: sent,
		TotalRecvMsgs: recv,
	}
}

func TestTelemetryIngestOutOfOrder(t *testing.T) {
	tele, err := NewTelemetry(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()

	// A delayed periodic report (seq 1) arriving after the final (seq 3)
	// must not overwrite it.
	tele.Ingest(0, snapFor(0, 10, 10), 3, true, now)
	tele.Ingest(0, snapFor(0, 5, 5), 1, false, now.Add(time.Second))

	view := tele.viewAt(now.Add(2 * time.Second))
	if view.Reporting != 1 || view.Finals != 1 {
		t.Fatalf("reporting, finals = %d, %d; want 1, 1", view.Reporting, view.Finals)
	}
	if got := view.Ranks[0].SentMsgs; got != 10 {
		t.Errorf("final report overwritten: sent = %d, want 10", got)
	}
	if !view.Ranks[0].Final {
		t.Error("final flag lost")
	}
}

func TestTelemetryIngestPartialAndStale(t *testing.T) {
	tele, err := NewTelemetry(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tele.staleAfter = 10 * time.Second
	now := time.Now()

	// Only 2 of 3 ranks have reported; one of them long ago.
	tele.Ingest(0, snapFor(0, 7, 3), 1, false, now.Add(-30*time.Second))
	tele.Ingest(2, snapFor(2, 3, 7), 1, false, now.Add(-time.Second))

	view := tele.viewAt(now)
	if view.WorldSize != 3 || view.Reporting != 2 {
		t.Fatalf("world, reporting = %d, %d; want 3, 2", view.WorldSize, view.Reporting)
	}
	if !view.Ranks[0].Stale {
		t.Error("rank 0 silent for 30s should be stale")
	}
	if view.Ranks[1].Stale {
		t.Error("rank 2 reported 1s ago should not be stale")
	}
	if view.Ranks[0].LastReportAgeMS < 29_000 {
		t.Errorf("rank 0 age %dms, want ≈30000", view.Ranks[0].LastReportAgeMS)
	}
	// sent == recv job-wide, but 2 of 3 ranks and none final: no verdict.
	if view.Reconciled {
		t.Errorf("a partial, live world must not reconcile: %+v", view)
	}

	// A final report never goes stale.
	tele.Ingest(0, snapFor(0, 9, 4), 2, true, now.Add(-20*time.Second))
	view = tele.viewAt(now)
	if view.Ranks[0].Stale {
		t.Error("final rank must not be stale")
	}
	if view.Reconciled {
		t.Error("12 sent != 11 recv must not reconcile")
	}

	// Out-of-range ranks are dropped, not tracked.
	tele.Ingest(-1, snapFor(-1, 1, 1), 1, false, now)
	tele.Ingest(3, snapFor(3, 1, 1), 1, false, now)
	if got := tele.viewAt(now).Reporting; got != 2 {
		t.Errorf("out-of-range ranks ingested: reporting = %d, want 2", got)
	}
}

// TestTelemetryReconcileNeedsEveryFinal: the job view reconciles only once
// every rank of the world has sent its final report, and only when bytes
// agree as well as messages.
func TestTelemetryReconcileNeedsEveryFinal(t *testing.T) {
	tele, err := NewTelemetry(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	tele.Ingest(0, snapFor(0, 0, 0), 1, true, now)
	if view := tele.viewAt(now); view.Reconciled {
		t.Errorf("1 of 2 ranks with zero counts reconciled: %+v", view)
	}
	uneven := snapFor(1, 3, 3)
	uneven.TotalSentBytes, uneven.TotalRecvBytes = 24, 16
	tele.Ingest(1, uneven, 1, true, now)
	if view := tele.viewAt(now); view.Reconciled {
		t.Errorf("3 == 3 messages but 24 != 16 bytes reconciled: %+v", view)
	}
	even := snapFor(1, 3, 3)
	even.TotalSentBytes, even.TotalRecvBytes = 24, 24
	tele.Ingest(1, even, 2, true, now)
	if view := tele.viewAt(now); !view.Reconciled {
		t.Errorf("every final in, messages and bytes equal, did not reconcile: %+v", view)
	}
}

// TestTelemetryRankEndpoints: /rank/R/perf serves the rank's latest report
// and /rank/R/stacks asks the rank over its session; a rank outside the world
// is a 404, and a rank that does not answer is an error status naming it.
func TestTelemetryRankEndpoints(t *testing.T) {
	const n = 2
	tele, err := NewTelemetry(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	tele.Ingest(0, snapFor(0, 5, 4), 1, false, time.Now())
	srv := httptest.NewServer(tele.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for _, path := range []string{"/rank/2/stacks", "/rank/-1/stacks", "/rank/x/perf", "/rank/2/perf", "/rank/1/perf"} {
		if code, body := get(path); code != http.StatusNotFound {
			t.Errorf("%s: %d %q, want 404", path, code, body)
		}
	}
	if body := httpGet(t, srv.URL+"/rank/0/perf", "application/json"); !strings.Contains(body, `"total_sent_msgs": 5`) {
		t.Errorf("/rank/0/perf:\n%s", body)
	}
	if code, body := get("/rank/0/stacks"); code != http.StatusBadGateway {
		t.Errorf("stacks with no job running: %d %q, want 502", code, body)
	}

	rv, err := bootstrap.NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()
	sessions := make([]*bootstrap.Session, n)
	var wg sync.WaitGroup
	for rank := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := bootstrap.Register(rv.Advertised(), rank, bootstrap.Endpoint{Addr: "x:1"}, 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			sessions[rank] = s
		}()
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s == nil {
			t.FailNow()
		}
		defer s.Close()
	}
	go sessions[0].Serve(func(int, int) {}, func(int, bool) {}) // rank 1 never reads its session
	tele.setStacks(func(rank int, _ time.Duration) (string, error) { return rv.Stacks(rank, 200*time.Millisecond) })
	if body := httpGet(t, srv.URL+"/rank/0/stacks", "text/plain; charset=utf-8"); !strings.Contains(body, "Session).Serve") {
		t.Errorf("/rank/0/stacks:\n%s", body)
	}
	if code, body := get("/rank/1/stacks"); code != http.StatusBadGateway || !strings.Contains(body, "rank 1") {
		t.Errorf("/rank/1/stacks of a silent rank: %d %q, want 502 naming rank 1", code, body)
	}
}

func TestTelemetryRates(t *testing.T) {
	tele, err := NewTelemetry(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()

	tele.Ingest(0, snapFor(0, 100, 0), 1, false, now)
	view := tele.viewAt(now)
	if view.Ranks[0].SentMsgsPerSec != 0 {
		t.Error("one report cannot have a rate")
	}

	// 400 more messages over 2 seconds: 200 msgs/s.
	tele.Ingest(0, snapFor(0, 500, 0), 2, false, now.Add(2*time.Second))
	view = tele.viewAt(now.Add(2 * time.Second))
	if got := view.Ranks[0].SentMsgsPerSec; got < 199 || got > 201 {
		t.Errorf("rate %g msgs/s, want 200", got)
	}

	// The final report freezes the rank: no rate on a finished row.
	tele.Ingest(0, snapFor(0, 600, 0), 3, true, now.Add(3*time.Second))
	view = tele.viewAt(now.Add(3 * time.Second))
	if view.Ranks[0].SentMsgsPerSec != 0 {
		t.Error("final rank still shows a rate")
	}
}

// encoded is snap as a rank's session report carries it.
func encoded(snap perf.Snapshot) []byte {
	b, _ := snap.AppendBinary(nil)
	return b
}

func TestTelemetryEndToEnd(t *testing.T) {
	tele, err := NewTelemetry(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := bootstrap.NewRendezvousBind("", 2, tele.every, tele.ingestReport)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()

	// Two ranks open their sessions — registering, syncing clocks — and
	// push reports over real TCP.
	sessions := make([]*bootstrap.Session, 2)
	var wg sync.WaitGroup
	for rank := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := bootstrap.Register(rv.Advertised(), rank, bootstrap.Endpoint{Addr: "x:1", Host: "host-x"}, 5*time.Second)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			sessions[rank] = s
		}()
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	for rank, s := range sessions {
		if s == nil {
			t.FailNow()
		}
		if _, bound, ok := s.ClockOffset(); !ok || bound < 0 {
			t.Errorf("rank %d: clock sync failed over loopback (ok=%v bound=%d)", rank, ok, bound)
		}
		snap := snapFor(rank, 4, 4)
		snap.Host = "" // the registration's host must backfill it
		if err := s.Report(encoded(snap), false); err != nil {
			t.Fatalf("rank %d report: %v", rank, err)
		}
		if err := s.Report(encoded(snapFor(rank, 9, 9)), true); err != nil {
			t.Fatalf("rank %d final: %v", rank, err)
		}
		s.Close()
	}
	// Close returns once both ranks have hung up: every report is in.
	rv.Close()

	view := tele.View()
	if view.Finals != 2 || view.Reporting != 2 {
		t.Fatalf("finals, reporting = %d, %d; want 2, 2", view.Finals, view.Reporting)
	}
	if view.TotalSentMsgs != 18 || !view.Reconciled {
		t.Errorf("totals %+v", view)
	}

	// The HTTP surface serves Prometheus text and the JSON view.
	srv := httptest.NewServer(tele.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics", "text/plain; version=0.0.4; charset=utf-8")
	for _, want := range []string{
		"mph_job_ranks_expected 2",
		"mph_job_ranks_final 2",
		"mph_job_sent_messages_total 18",
		`mph_rank_sent_messages_total{rank="1",component="comp",host="node-a"} 9`,
		"mph_rank_clock_offset_seconds",
		"mph_rank_stale",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	status := httpGet(t, srv.URL+"/status", "application/json")
	if !strings.Contains(status, `"world_size": 2`) || !strings.Contains(status, `"reconciled": true`) {
		t.Errorf("/status payload:\n%s", status)
	}
}

func httpGet(t *testing.T, url, wantType string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wantType {
		t.Errorf("%s: content type %q, want %q", url, ct, wantType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// BenchmarkTelemetryOverhead (EXPERIMENTS.md P1, live-telemetry row) runs the
// loop every observability budget is stated on — exact-envelope send/recv
// pairs on a self-delivering rank with 8 unexpected messages queued (the
// depth the coupled workloads reach), the one internal/mpi's
// BenchmarkTracerOverhead times — bare, and while a reporter goroutine
// snapshots the rank's counters every 50 ms and pushes them over a
// rendezvous session to a live aggregator: the work mphrun -stats-interval
// 50ms adds to a job. Budget: 50ms within 5 % of 0s.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, interval := range []time.Duration{0, 50 * time.Millisecond} {
		b.Run(interval.String(), func(b *testing.B) {
			w, err := mpi.NewWorld(1)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if interval > 0 {
				tele, err := NewTelemetry(1, interval)
				if err != nil {
					b.Fatal(err)
				}
				rv, err := bootstrap.NewRendezvousBind("", 1, tele.every, tele.ingestReport)
				if err != nil {
					b.Fatal(err)
				}
				defer rv.Close()
				go rv.Serve(5 * time.Second)
				sess, err := bootstrap.Register(rv.Advertised(), 0, bootstrap.Endpoint{Addr: "bench:1"}, 5*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				defer sess.Close()
				every, _ := sess.ReportEvery()
				c, err := w.Comm(0)
				if err != nil {
					b.Fatal(err)
				}
				pv := c.Perf()
				stop, stopped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(stopped)
					tick := time.NewTicker(every)
					defer tick.Stop()
					for {
						select {
						case <-stop:
							return
						case <-tick.C:
							sess.Report(encoded(pv.Snapshot()), false) // a lost report costs the loop nothing
						}
					}
				}()
				defer func() { close(stop); <-stopped }()
			}
			err = w.Run(func(c *mpi.Comm) error {
				for i := 0; i < 8; i++ {
					if err := c.Send(0, 99, nil); err != nil {
						return err
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Send(0, 0, nil); err != nil {
						return err
					}
					if _, _, err := c.Recv(0, 0); err != nil {
						return err
					}
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
