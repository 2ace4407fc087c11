package bootstrap

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestSessionAnswersStacks: a rank's Serve answers a stacks ask with every
// goroutine's stack, its own Serve loop among them, under the ask's id.
func TestSessionAnswersStacks(t *testing.T) {
	rank, launcher := net.Pipe()
	defer launcher.Close()
	s := &Session{conn: rank}
	defer s.Close()
	go s.Serve(func(int, int) {}, func(int, bool) {})

	if err := writeRecord(launcher, msg{Kind: kindStacks, ID: 42}); err != nil {
		t.Fatal(err)
	}
	var answer msg
	if err := readRecord(launcher, &answer); err != nil {
		t.Fatal(err)
	}
	if answer.Kind != kindStacks || answer.ID != 42 {
		t.Fatalf("answer kind %d id %d, want stacks id 42", answer.Kind, answer.ID)
	}
	if !strings.Contains(answer.Text, "bootstrap.(*Session).Serve") {
		t.Errorf("dump does not show the session's Serve:\n%s", answer.Text)
	}
}

// TestSessionKeepsLinesSentDuringClockSync: the book is out before a rank's
// clock sync, so the launcher may ask for stacks or send a down line while
// the rank waits for a pong. Neither may cut the sync short, and Serve must
// still answer the ask and deliver the down line.
func TestSessionKeepsLinesSentDuringClockSync(t *testing.T) {
	rank, launcher := net.Pipe()
	defer launcher.Close()
	launcher.SetDeadline(time.Now().Add(10 * time.Second)) // a sync cut short sends no more pings
	s := &Session{conn: rank}
	defer s.Close()
	synced := make(chan struct{})
	go func() {
		s.clockSync()
		close(synced)
	}()

	for i := 0; i < DefaultClockSyncRounds; i++ {
		var ping msg
		if err := readRecord(launcher, &ping); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if writeRecord(launcher, msg{Kind: kindStacks, ID: 7}) != nil || writeRecord(launcher, msg{Kind: kindDown, Rank: 3}) != nil {
				t.Fatal("launcher send failed")
			}
		}
		if err := writeRecord(launcher, msg{Kind: kindPong, Seq: ping.Seq, T: time.Now().UnixNano()}); err != nil {
			t.Fatal(err)
		}
	}
	<-synced
	if _, _, ok := s.ClockOffset(); !ok {
		t.Error("a stacks ask and a down line cut the clock sync short")
	}

	downs := make(chan int, 1)
	go s.Serve(func(int, int) {}, func(rank int, _ bool) { downs <- rank })
	var answer msg
	if err := readRecord(launcher, &answer); err != nil {
		t.Fatal(err)
	}
	if answer.Kind != kindStacks || answer.ID != 7 {
		t.Errorf("answer kind %d id %d, want stacks id 7", answer.Kind, answer.ID)
	}
	select {
	case r := <-downs:
		if r != 3 {
			t.Errorf("down line names rank %d, want 3", r)
		}
	case <-time.After(5 * time.Second):
		t.Error("the down line sent during clock sync never reached Serve")
	}
}

// TestGoroutineStacksCap: a dump longer than the cap is cut at it and ends
// with the truncation marker; one within it is whole.
func TestGoroutineStacksCap(t *testing.T) {
	const limit = 256 // shorter than any dump: the first goroutine's header and frame alone exceed it
	text := goroutineStacks(limit)
	if !strings.HasSuffix(text, stacksTruncated) || len(text) != limit+len(stacksTruncated) {
		t.Errorf("dump of %d bytes under a %d-byte cap, want the cap plus the marker:\n%s", len(text), limit, text)
	}
	if text := goroutineStacks(maxStacksBytes); strings.HasSuffix(text, stacksTruncated) || !strings.HasPrefix(text, "goroutine ") {
		t.Errorf("whole dump:\n%s", text)
	}
}

// TestRendezvousStacks: an ask a rank never answers fails within its
// timeout naming the rank, an answer under an id nobody asked is dropped,
// and the session is still served afterwards: once the rank serves, the next
// ask gets its dump, and the late answer to the first is dropped too.
func TestRendezvousStacks(t *testing.T) {
	const n = 2
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
	defer sessions[0].Close()
	defer sessions[1].Close()

	// Rank 1 reads nothing yet; it only sends an answer nobody asked for.
	if err := sessions[1].send(msg{Kind: kindStacks, ID: 1 << 40, Text: "stray"}); err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	start := time.Now()
	text, err := rv.Stacks(1, timeout)
	if err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("unanswered ask: %q, %v; want an error naming rank 1", text, err)
	}
	if d := time.Since(start); d < timeout || d > timeout+time.Second {
		t.Errorf("unanswered ask failed after %v, want about %v", d, timeout)
	}

	go sessions[1].Serve(func(int, int) {}, func(int, bool) {})
	text, err = rv.Stacks(1, 5*time.Second)
	if err != nil || !strings.Contains(text, "Session).Serve") {
		t.Fatalf("ask of a serving rank: %v\n%s", err, text)
	}
	if _, err := rv.Stacks(n, time.Second); err == nil || !strings.Contains(err.Error(), "rank 2") {
		t.Errorf("ask of a rank outside the world: %v", err)
	}
	rv.mu.Lock()
	pending := len(rv.asks)
	rv.mu.Unlock()
	if pending != 0 {
		t.Errorf("%d asks still pending after every ask returned", pending)
	}
}
