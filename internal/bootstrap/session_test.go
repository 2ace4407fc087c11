package bootstrap

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mph/internal/mpi/perf"
)

func TestEstimateClockOffset(t *testing.T) {
	cases := []struct {
		name    string
		samples []ClockSample
		offset  int64
		bound   int64
		ok      bool
	}{
		{name: "no samples", ok: false},
		{
			name:    "clocks agree, symmetric rtt",
			samples: []ClockSample{{T0: 100, TS: 150, T3: 200}},
			offset:  0, bound: 50, ok: true,
		},
		{
			name:    "server ahead by 1000",
			samples: []ClockSample{{T0: 100, TS: 1150, T3: 200}},
			offset:  1000, bound: 50, ok: true,
		},
		{
			name:    "server behind by 1000",
			samples: []ClockSample{{T0: 2100, TS: 1150, T3: 2200}},
			offset:  -1000, bound: 50, ok: true,
		},
		{
			name: "min rtt round wins",
			samples: []ClockSample{
				{T0: 0, TS: 5000, T3: 1000},    // rtt 1000, noisy
				{T0: 2000, TS: 2060, T3: 2100}, // rtt 100, tight
				{T0: 4000, TS: 9000, T3: 4800}, // rtt 800
			},
			offset: 10, bound: 50, ok: true,
		},
		{
			name:    "negative rtt skipped",
			samples: []ClockSample{{T0: 500, TS: 400, T3: 100}},
			ok:      false,
		},
		{
			name: "negative rtt skipped, good round kept",
			samples: []ClockSample{
				{T0: 500, TS: 400, T3: 100},
				{T0: 100, TS: 150, T3: 200},
			},
			offset: 0, bound: 50, ok: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			offset, bound, ok := EstimateClockOffset(c.samples)
			if ok != c.ok {
				t.Fatalf("ok = %v, want %v", ok, c.ok)
			}
			if !ok {
				return
			}
			if offset != c.offset || bound != c.bound {
				t.Errorf("offset, bound = %d, %d; want %d, %d", offset, bound, c.offset, c.bound)
			}
		})
	}
}

// abortSeen is one abort a rank's Serve handed its callback.
type abortSeen struct{ rank, code, origin int }

// TestSessionAbortRelay: a rank's abort travels up its session and the
// launcher relays it, attributed to that rank, to every other session —
// never back to its sender; the launcher's own abort reaches every session
// with origin AbortOriginLauncher.
func TestSessionAbortRelay(t *testing.T) {
	const n = 3
	rv, err := NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := serveWorld(rv, 10*time.Second)
	sessions := registerAll(t, rv, n, func(rank int) Endpoint { return Endpoint{Addr: addrFor(rank)} })
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	seen := make(chan abortSeen, 4*n)
	for rank, s := range sessions {
		defer s.Close()
		go s.Serve(func(code, origin int) { seen <- abortSeen{rank, code, origin} }, func(int, bool) {})
	}
	expect := func(want map[abortSeen]bool) {
		t.Helper()
		for len(want) > 0 {
			select {
			case a := <-seen:
				if !want[a] {
					t.Fatalf("unexpected abort %+v", a)
				}
				delete(want, a)
			case <-time.After(5 * time.Second):
				t.Fatalf("aborts never delivered: %v", want)
			}
		}
	}
	if err := sessions[0].Abort(9); err != nil {
		t.Fatal(err)
	}
	expect(map[abortSeen]bool{{1, 9, 0}: true, {2, 9, 0}: true})
	rv.Abort(5)
	expect(map[abortSeen]bool{{0, 5, AbortOriginLauncher}: true, {1, 5, AbortOriginLauncher}: true, {2, 5, AbortOriginLauncher}: true})
	select {
	case a := <-seen:
		t.Fatalf("abort %+v delivered twice or to its sender", a)
	default:
	}
}

// downSeen is one down line a rank's Serve handed its callback.
type downSeen struct {
	rank, dead int
	final      bool
}

// TestSessionDownRelay: a session's end reaches every other open session as
// a down line naming its rank — final when the rank said bye first, not when
// it just hung up — never the ended rank itself, and Ended numbers the ends
// in order.
func TestSessionDownRelay(t *testing.T) {
	const n = 3
	rv, err := NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := serveWorld(rv, 10*time.Second)
	sessions := registerAll(t, rv, n, func(rank int) Endpoint { return Endpoint{Addr: addrFor(rank)} })
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	seen := make(chan downSeen, n*n)
	for rank, s := range sessions {
		go s.Serve(func(int, int) {}, func(dead int, final bool) { seen <- downSeen{rank, dead, final} })
	}
	expect := func(want ...downSeen) {
		t.Helper()
		for _, w := range want {
			select {
			case d := <-seen:
				if d != w {
					t.Fatalf("down line %+v, want %+v", d, w)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("down line %+v never delivered", w)
			}
		}
	}
	if err := sessions[1].Bye(); err != nil {
		t.Fatal(err)
	}
	sessions[1].Close()
	got := []downSeen{<-seen, <-seen}
	sort.Slice(got, func(i, j int) bool { return got[i].rank < got[j].rank })
	if want := []downSeen{{0, 1, true}, {2, 1, true}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rank 1's bye: %+v, want %+v", got, want)
	}
	sessions[2].Close() // no bye: a crash, to the launcher
	expect(downSeen{0, 2, false})
	sessions[0].Close()
	rv.Close()
	if ended := rv.Ended(); !reflect.DeepEqual(ended, []int{1, 2, 0}) {
		t.Errorf("Ended = %v, want [1 2 0]", ended)
	}
	select {
	case d := <-seen:
		t.Fatalf("extra down line %+v", d)
	default:
	}
}

// encoded is snap as a rank's session report carries it.
func encoded(snap perf.Snapshot) []byte {
	b, _ := snap.AppendBinary(nil)
	return b
}

// TestSessionReportsBeforeClose: with an aggregator attached, the book asks
// every rank to clock-sync and report, each report lands keyed by the
// session's rank with the host the rank registered beside it, and once
// Close returns — every rank having hung up — every final report is in,
// with no waiting on the caller's side.
func TestSessionReportsBeforeClose(t *testing.T) {
	const n = 2
	type report struct {
		rank  int
		host  string
		final bool
	}
	var mu sync.Mutex
	var got []report
	ingest := func(rank int, host string, raw []byte, seq uint64, final bool, at time.Time) {
		var snap perf.Snapshot
		if err := snap.UnmarshalBinary(raw); err != nil {
			t.Errorf("rank %d's report does not decode: %v", rank, err)
		}
		if snap.Host == "" {
			snap.Host = host
		}
		mu.Lock()
		got = append(got, report{rank, snap.Host, final})
		mu.Unlock()
	}
	rv, err := NewRendezvousBind("", n, time.Hour, ingest)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := serveWorld(rv, 10*time.Second)
	sessions := registerAll(t, rv, n, func(rank int) Endpoint {
		return Endpoint{Addr: addrFor(rank), Host: fmt.Sprintf("node-%d", rank)}
	})
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	for rank, s := range sessions {
		if every, ok := s.ReportEvery(); !ok || every != time.Hour {
			t.Errorf("rank %d: ReportEvery = %v, %v; want 1h, true", rank, every, ok)
		}
		if _, bound, ok := s.ClockOffset(); !ok || bound < 0 {
			t.Errorf("rank %d: clock sync failed over loopback (ok=%v bound=%d)", rank, ok, bound)
		}
		if err := s.Report(encoded(perf.Snapshot{WorldRank: 1 - rank}), false); err != nil {
			t.Fatal(err)
		}
		if err := s.Report(encoded(perf.Snapshot{Host: "own"}), true); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	rv.Close()
	mu.Lock()
	defer mu.Unlock()
	want := []report{{0, "node-0", false}, {0, "own", true}, {1, "node-1", false}, {1, "own", true}}
	sort.Slice(got, func(i, j int) bool {
		return got[i].rank < got[j].rank || got[i].rank == got[j].rank && !got[i].final
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ingested %+v, want %+v", got, want)
	}
}

// TestSessionKindNumbers pins the kind numbers that tcpnet's fake launchers
// (internal/mpi/tcpnet/fault_test.go) write and read by value: renumbering a
// kind must fail here at once, not there as a rank's 20-30 s wait on a book
// it cannot read.
func TestSessionKindNumbers(t *testing.T) {
	for _, c := range []struct {
		name       string
		kind, want byte
	}{{"register", kindRegister, 1}, {"book", kindBook, 2}, {"down", kindDown, 8}} {
		if c.kind != c.want {
			t.Errorf("kind %s is %d; fault_test.go's fake launchers use %d", c.name, c.kind, c.want)
		}
	}
}
