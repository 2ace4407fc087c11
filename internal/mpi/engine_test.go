package mpi

// White-box tests of the two-queue matching engine: posted order, queue
// accounting, peer loss and shutdown, exercised directly against engine
// internals without a transport.

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
	return e.postRecv(new(precv), ctx, src, tag, sink{dst: dst})
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
// must win the first message: posted order holds across exact and wildcard
// receives alike. And vice versa.
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
	if _, err := e.recv(2, 0, 0, sink{}); !errors.Is(err, ErrClosed) {
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

// peerLost must fail exactly the posted receives only the dead rank can
// satisfy — whether they name a tag or not — leave AnySource receives and
// receives from live ranks queued in post order, keep the dead rank's eager
// messages consumable, and drop and fail its undelivered rendezvous
// placeholders.
func TestPeerLostSelectsRecords(t *testing.T) {
	const dead, live = 2, 3          // world ranks
	const deadSrc, liveSrc = 1, 0    // their ranks in the communicators below
	group := []int{live, dead, 1, 0} // communicator rank -> world rank
	e := newEngine(4)
	e.registerGroup(1, group) // receives are posted on context 1
	e.registerGroup(2, group) // unexpected traffic waits on context 2

	_, exact, _ := postRecv(e, 1, deadSrc, 3, nil)
	_, anyTag, _ := postRecv(e, 1, deadSrc, AnyTag, nil)
	_, anySrc, _ := postRecv(e, 1, AnySource, 3, nil)
	_, fromLive, _ := postRecv(e, 1, liveSrc, 3, nil)
	if err := e.post(&Packet{Ctx: 2, Src: deadSrc, SrcWorld: dead, Tag: 7, Data: []byte("eager")}); err != nil {
		t.Fatal(err)
	}
	rp := NewPacketPool(0).GetRendezvous(16, 0) // the test keeps the transport's hold
	rp.Ctx, rp.Src, rp.SrcWorld, rp.Tag = 2, deadSrc, dead, 8
	rdv := rp.Rdv
	if err := e.post(rp); err != nil {
		t.Fatal(err)
	}

	cause := errors.New("connection reset")
	e.peerLost(dead, cause)
	e.peerLost(dead, cause) // idempotent

	for name, pr := range map[string]*precv{"exact": exact, "concrete-source/AnyTag": anyTag} {
		select {
		case <-pr.ready:
		default:
			t.Fatalf("%s receive naming the dead rank still pending", name)
		}
		if r, ok := IsPeerLost(pr.err); !ok || r != dead {
			t.Errorf("%s receive: err %v, want *ErrPeerLost for rank %d", name, pr.err, dead)
		}
	}
	if p := e.pendingPosted(); p != 2 {
		t.Errorf("PRQ depth %d after peer loss, want the AnySource and live receives", p)
	}
	if r, ok := IsPeerLost(rdvState(rdv).err); !ok || r != dead {
		t.Errorf("undelivered placeholder: err %v, want *ErrPeerLost for rank %d", rdvState(rdv).err, dead)
	}
	if u := e.pendingUnexpected(); u != 1 {
		t.Errorf("UMQ depth %d after peer loss, want the eager message alone", u)
	}
	if m, pr, err := postRecv(e, 2, deadSrc, AnyTag, nil); err != nil || pr != nil || string(m.Data) != "eager" {
		t.Errorf("eager message from the dead rank: %v %v %v, want it consumable", m, pr, err)
	}
	if _, _, err := postRecv(e, 2, deadSrc, 8, nil); err == nil {
		t.Error("a new receive naming the dead rank was queued")
	}

	// The survivors keep their post order: the AnySource receive was posted
	// first, so it takes the live rank's first message.
	post(t, e, 1, liveSrc, 3, "first")
	post(t, e, 1, liveSrc, 3, "second")
	if got := waitPayload(t, anySrc); got != "first" {
		t.Errorf("AnySource receive got %q", got)
	}
	if got := waitPayload(t, fromLive); got != "second" {
		t.Errorf("receive from the live rank got %q", got)
	}
}
