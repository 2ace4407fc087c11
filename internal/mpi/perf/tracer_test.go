package perf

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mph/internal/wire"
)

func TestTracerRecordAndEvents(t *testing.T) {
	tr := NewTracer(8, time.Now())
	tr.Record(KSend, 1, 2, 3, 0)
	tr.Record(KMatch, 4, 5, 6, 7)
	if tr.Recorded() != 2 || tr.Dropped() != 0 {
		t.Errorf("recorded %d dropped %d, want 2/0", tr.Recorded(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Kind != KSend || evs[0].A != 1 || evs[0].C != 3 {
		t.Errorf("event 0: %+v", evs[0])
	}
	if evs[1].Kind != KMatch || evs[1].D != 7 {
		t.Errorf("event 1: %+v", evs[1])
	}
	if evs[0].TS > evs[1].TS {
		t.Errorf("timestamps out of order: %d then %d", evs[0].TS, evs[1].TS)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4, time.Now())
	for i := int64(0); i < 10; i++ {
		tr.Record(KSend, i, 0, 0, 0)
	}
	if tr.Recorded() != 10 {
		t.Errorf("recorded %d, want 10", tr.Recorded())
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want capacity 4", len(evs))
	}
	// The ring keeps the newest events, chronologically ordered.
	for i, e := range evs {
		if want := int64(6 + i); e.A != want {
			t.Errorf("event %d payload %d, want %d (oldest overwritten first)", i, e.A, want)
		}
	}
}

func TestTracerZeroCapacityDefaults(t *testing.T) {
	tr := NewTracer(0, time.Now())
	if tr.Capacity() != DefaultTraceEvents {
		t.Errorf("capacity %d, want default %d", tr.Capacity(), DefaultTraceEvents)
	}
}

// TestTracerConcurrentRecord records from several goroutines at once, half
// through record with a clock read taken before the lock (as CollEnter
// does), and dumps midway and at the end: every event is counted, and a
// dump's timestamps never decrease.
func TestTracerConcurrentRecord(t *testing.T) {
	r := NewRank(0, 1)
	tr := NewTracer(1024, r.base)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					tr.Record(KSend, int64(g), 0, 0, 0)
				} else {
					tr.record(r.Now(), KBegin, int64(CollBarrier), 0, 0, 0)
				}
			}
		}()
	}
	check := func() {
		evs := tr.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].TS < evs[i-1].TS {
				t.Fatalf("dump goes back in time at %d: %d after %d", i, evs[i].TS, evs[i-1].TS)
			}
		}
	}
	check()
	wg.Wait()
	check()
	if tr.Recorded() != 8000 || len(tr.Events()) != 1024 {
		t.Errorf("recorded %d, kept %d; want 8000, 1024", tr.Recorded(), len(tr.Events()))
	}
}

func TestDumpRoundTrip(t *testing.T) {
	base := time.Now()
	tr := NewTracer(8, base)
	tr.SetSample(4)
	span := tr.Begin(int64(PhaseRegistry), 0, 0)
	tr.record(5, KSend, 2, 9, 128, -1)
	span.End()

	var buf bytes.Buffer
	meta := Meta{Rank: 3, Size: 8, Component: "ice", Host: "node-b", ClockOffsetNS: -2500}
	if err := tr.Dump(&buf, meta); err != nil {
		t.Fatal(err)
	}
	got, events, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := meta
	want.BaseUnix, want.Capacity, want.Recorded, want.Dropped, want.Sample = base.UnixNano(), 8, 3, 0, 4
	if got != want {
		t.Errorf("meta came back as %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(events, tr.Events()) {
		t.Errorf("events came back as %+v, want %+v", events, tr.Events())
	}
}

func TestDumpReportsDropped(t *testing.T) {
	tr := NewTracer(2, time.Now())
	for i := 0; i < 5; i++ {
		tr.Record(KSend, 0, 0, 0, 0)
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf, Meta{Rank: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	m, events, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Recorded != 5 || m.Dropped != 3 || len(events) != 2 {
		t.Errorf("recorded %d dropped %d kept %d, want 5/3/2", m.Recorded, m.Dropped, len(events))
	}
}

// TestReadDumpEdges: a dump is one meta record, then events, and nothing
// else reads as one.
func TestReadDumpEdges(t *testing.T) {
	tr := NewTracer(4, time.Now())
	tr.Record(KSend, 1, 2, 3, 0)
	var buf bytes.Buffer
	if err := tr.Dump(&buf, Meta{Rank: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	meta := dump[:4+binary.LittleEndian.Uint32(dump)]
	event := dump[len(meta):]
	unknown := wire.AppendRecord(nil, kindMeta+1, func(*wire.Codec) {})
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no meta record", event},
		{"two meta records", slices.Concat(meta, meta, event)},
		{"an unknown kind", slices.Concat(meta, unknown)},
		{"cut short", dump[:len(dump)-1]},
		{"an event a field short", slices.Concat(meta, wire.AppendRecord(nil, byte(KSend), func(c *wire.Codec) {
			var v int64
			for i := 0; i < 4; i++ {
				wire.Int(c, &v)
			}
		}))},
	} {
		if _, _, err := ReadDump(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: read as a dump", c.name)
		}
	}
	if m, events, err := ReadDump(bytes.NewReader(meta)); err != nil || m.Rank != 1 || len(events) != 0 {
		t.Errorf("a dump of no events read as %+v, %d events, %v", m, len(events), err)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if numKinds.String() != "unknown" {
		t.Error("out-of-range kind must print unknown")
	}
}

func TestRankEnableTracerIntegration(t *testing.T) {
	r := NewRank(0, 2)
	if r.Tracer() != nil {
		t.Fatal("tracer on by default")
	}
	r.BeginPhase(PhaseRegistry).End() // no-op with tracing off

	tr := r.EnableTracer(32)
	if tr == nil || r.Tracer() != tr {
		t.Fatal("EnableTracer did not install")
	}
	r.BeginPhase(PhaseSplit).End()
	start := r.CollEnter(CollBarrier)
	r.CollExit(CollBarrier, start)
	r.CountSplit(1, 2)

	evs := tr.Events()
	kinds := make(map[Kind]int)
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[KBegin] != 2 || kinds[KEnd] != 2 || kinds[KCommSplit] != 1 {
		t.Errorf("span/split events %v", kinds)
	}
	// Each end names the span its begin opened, and follows it.
	var names []string
	for _, e := range evs {
		if e.Kind == KBegin || e.Kind == KEnd {
			names = append(names, e.Kind.String()+" "+SpanName(e.A, e.B))
		}
	}
	want := []string{"begin handshake:split", "end handshake:split", "begin barrier", "end barrier"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("spans %v, want %v", names, want)
	}
}

// TestTracerKeepsNewest holds the ring to its contract at a production-sized
// capacity: after 3×capacity events a dump holds exactly the newest
// capacity of them, in recording order.
func TestTracerKeepsNewest(t *testing.T) {
	const capacity = 4096
	tr := NewTracer(capacity, time.Now())
	for i := int64(0); i < 3*capacity; i++ {
		tr.Record(KCommDup, i, 0, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != capacity || tr.Dropped() != 2*capacity {
		t.Fatalf("kept %d, dropped %d; want %d, %d", len(evs), tr.Dropped(), capacity, 2*capacity)
	}
	for i, e := range evs {
		if want := int64(2*capacity + i); e.A != want {
			t.Fatalf("event %d is #%d, want #%d: the ring must keep the newest %d in order", i, e.A, want, capacity)
		}
	}
}
