package mpi

// White-box tests of the two-queue matching engine: posted-order
// arbitration, queue accounting, bucket sweeping, and shutdown, exercised
// directly against engine internals without a transport.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func post(t *testing.T, e *engine, ctx uint64, src, tag int, payload string) {
	t.Helper()
	if err := e.post(&Packet{Ctx: ctx, Src: src, Tag: tag, Data: []byte(payload)}); err != nil {
		t.Fatalf("post(%d,%d): %v", src, tag, err)
	}
}

// postRecv posts a fresh record the way a Request posts its own: pr is nil
// when the receive completed inline (m) or failed (err).
func postRecv(e *engine, ctx uint64, src, tag int, dst []byte) (m *Packet, pr *precv, err error) {
	return e.postRecv(new(precv), ctx, src, tag, dst)
}

func waitPayload(t *testing.T, pr *precv) string {
	t.Helper()
	select {
	case <-pr.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("posted receive never completed")
	}
	if pr.err != nil {
		t.Fatalf("posted receive failed: %v", pr.err)
	}
	return string(pr.pkt.Data)
}

// A wildcard receive posted before an exact receive on the same envelope
// must win the first message — the sequence number arbitrates between the
// exact bucket head and the wildcard list. And vice versa.
func TestExactVsWildcardArbitration(t *testing.T) {
	e := newEngine(8)
	_, wild, err := postRecv(e, 1, AnySource, AnyTag, nil)
	if err != nil || wild == nil {
		t.Fatalf("wildcard postRecv: %v %v", wild, err)
	}
	_, exact, err := postRecv(e, 1, 0, 5, nil)
	if err != nil || exact == nil {
		t.Fatalf("exact postRecv: %v %v", exact, err)
	}
	post(t, e, 1, 0, 5, "first")
	if got := waitPayload(t, wild); got != "first" {
		t.Errorf("older wildcard lost the first message (got %q)", got)
	}
	post(t, e, 1, 0, 5, "second")
	if got := waitPayload(t, exact); got != "second" {
		t.Errorf("exact receive got %q", got)
	}

	// Reverse posting order: now the exact receive is older and must win.
	_, exact2, _ := postRecv(e, 1, 0, 5, nil)
	_, wild2, _ := postRecv(e, 1, AnySource, AnyTag, nil)
	post(t, e, 1, 0, 5, "third")
	if got := waitPayload(t, exact2); got != "third" {
		t.Errorf("older exact receive lost (got %q)", got)
	}
	post(t, e, 1, 0, 5, "fourth")
	if got := waitPayload(t, wild2); got != "fourth" {
		t.Errorf("wildcard receive got %q", got)
	}
}

// Several receives posted on one envelope must drain in post order.
func TestPostedOrderSameEnvelope(t *testing.T) {
	e := newEngine(8)
	const n = 8
	prs := make([]*precv, n)
	for i := range prs {
		_, pr, err := postRecv(e, 1, 0, 0, nil)
		if err != nil || pr == nil {
			t.Fatalf("postRecv %d: %v %v", i, pr, err)
		}
		prs[i] = pr
	}
	for i := 0; i < n; i++ {
		post(t, e, 1, 0, 0, fmt.Sprint(i))
	}
	for i, pr := range prs {
		if got := waitPayload(t, pr); got != fmt.Sprint(i) {
			t.Errorf("receive posted %dth matched message %q", i, got)
		}
	}
}

// Queue depth accounting across post, match, and cancel.
func TestQueueAccounting(t *testing.T) {
	e := newEngine(8)
	if u, p := e.pendingUnexpected(), e.pendingPosted(); u != 0 || p != 0 {
		t.Fatalf("fresh engine queues %d/%d", u, p)
	}
	post(t, e, 1, 0, 0, "a")
	post(t, e, 1, 0, 1, "b")
	if u := e.pendingUnexpected(); u != 2 {
		t.Fatalf("UMQ depth %d after two posts", u)
	}
	_, pr, _ := postRecv(e, 1, 0, 9, nil) // no match: queues
	if u, p := e.pendingUnexpected(), e.pendingPosted(); u != 2 || p != 1 {
		t.Fatalf("queues %d/%d after unmatched postRecv", u, p)
	}
	if m, pr2, _ := postRecv(e, 1, 0, 0, nil); m == nil || pr2 != nil {
		t.Fatal("postRecv did not complete inline against the UMQ")
	}
	if u := e.pendingUnexpected(); u != 1 {
		t.Fatalf("UMQ depth %d after inline match", u)
	}
	if !e.cancel(pr) {
		t.Fatal("cancel of an unmatched posted receive failed")
	}
	if p := e.pendingPosted(); p != 0 {
		t.Fatalf("PRQ depth %d after cancel", p)
	}
	if e.cancel(pr) {
		t.Fatal("double cancel succeeded")
	}
	<-pr.ready
	if !errors.Is(pr.err, ErrCanceled) {
		t.Fatalf("canceled record err %v", pr.err)
	}
}

// Driving many distinct envelopes must not leave the bucket maps holding an
// empty bucket per envelope forever: once empties dominate, a sweep drops
// them, and the memoized last-bucket pointer must not dangle across it.
func TestBucketSweep(t *testing.T) {
	e := newEngine(8)
	const envelopes = 4 * sweepThreshold
	for i := 0; i < envelopes; i++ {
		post(t, e, 1, 0, i, "x")
	}
	for i := 0; i < envelopes; i++ {
		if m := func() *Packet {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.takeUnexpected(1, 0, i, nil)
		}(); m == nil {
			t.Fatalf("message on tag %d lost", i)
		}
	}
	e.mu.Lock()
	ulen, uempty := len(e.ubuckets), e.uempty
	e.mu.Unlock()
	if ulen > sweepThreshold+1 {
		t.Errorf("UMQ retains %d buckets (%d empty) after draining %d envelopes",
			ulen, uempty, envelopes)
	}
	// The engine still matches correctly after the sweep (the memo cache
	// must have been invalidated with the buckets it pointed into).
	post(t, e, 1, 0, 7, "again")
	if m, pr, _ := postRecv(e, 1, 0, 7, nil); m == nil || pr != nil || string(m.Data) != "again" {
		t.Fatal("post-sweep match failed")
	}

	// Same policy on the posted-receive side.
	for i := 0; i < envelopes; i++ {
		_, pr, _ := postRecv(e, 1, 0, i, nil)
		post(t, e, 1, 0, i, "y")
		if got := waitPayload(t, pr); got != "y" {
			t.Fatalf("posted receive on tag %d got %q", i, got)
		}
	}
	e.mu.Lock()
	plen := len(e.pbuckets)
	e.mu.Unlock()
	if plen > sweepThreshold+1 {
		t.Errorf("PRQ retains %d buckets after draining %d envelopes", plen, envelopes)
	}
}

// close must fail every queued posted receive with ErrClosed, whatever else
// the queues hold, and every later post and receive.
func TestCloseFailsPostedReceives(t *testing.T) {
	e := newEngine(8)
	_, exact, _ := postRecv(e, 1, 0, 0, nil)
	_, wild, _ := postRecv(e, 1, AnySource, AnyTag, nil)
	post(t, e, 2, 0, 0, "other context") // goes unexpected
	e.close()
	for _, pr := range []*precv{exact, wild} {
		<-pr.ready
		if !errors.Is(pr.err, ErrClosed) {
			t.Errorf("posted receive err %v after close", pr.err)
		}
	}
	if _, err := e.recv(2, 0, 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("blocking recv after close: %v", err)
	}
	if err := e.post(&Packet{Ctx: 1, Src: 0, Tag: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("post after close: %v", err)
	}
	if _, _, err := postRecv(e, 1, 0, 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("postRecv after close: %v", err)
	}
	e.close() // idempotent
}
