package bootstrap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mph/internal/sock"
)

// ErrRendezvousClosed is returned by Serve when the exchange was canceled
// with Close before every rank registered — the launcher's way of tearing
// the rendezvous down promptly once a child has already failed.
var ErrRendezvousClosed = errors.New("bootstrap: rendezvous closed")

// Rendezvous is the launcher's end of every rank's session (see msg): it
// accepts one connection per rank, reads each registration, answers them
// all with the complete endpoint book once the world has registered, and
// then serves each session until its rank hangs up — answering clock-sync
// pings, handing reports to the aggregator, relaying aborts, matching stacks
// answers to their asks, and telling every other rank when a session ends.
type Rendezvous struct {
	ln         listener
	size       int
	advertised string
	every      time.Duration
	ingest     Ingest

	closed atomic.Bool

	mu       sync.Mutex
	sessions []*session             // by rank once the book is out; nil where the rank has hung up
	ended    []int                  // ranks in the order their sessions ended
	askSeq   uint64                 // id of the last stacks ask
	asks     map[uint64]chan string // stacks asks awaiting their answer, by id
}

// listener is what Serve accepts sessions on: a *sock.Listener, or in-memory
// pipes under test.
type listener interface {
	Accept() (conn, error)
	SetDeadline(time.Time) error
	Close() error
}

// sockListener is a *sock.Listener as a listener.
type sockListener struct{ *sock.Listener }

func (l sockListener) Accept() (conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err // not a nil *sock.Conn in a non-nil conn
	}
	return c, nil
}

// session is the launcher's state for one rank's session.
type session struct {
	rank int
	ep   Endpoint
	conn conn
	bye  bool          // the rank said bye: its session ends cleanly
	done chan struct{} // closed once the session has ended and the others were told
}

// Ingest takes one report off a rank's session: the rank and host the
// session registered, the snapshot as perf.Snapshot.AppendBinary encoded
// it (decoding it is the callee's), its sequence number, whether it is the
// rank's final one, and when it arrived.
type Ingest func(rank int, host string, snap []byte, seq uint64, final bool, at time.Time)

// NewRendezvousBind starts the exchange on the given bind host ("" =
// loopback, wildcard = all interfaces with a detected routable IP
// advertised) so workers on other hosts can reach it. A non-nil ingest
// receives every rank's reports and makes the book ask each rank to
// clock-sync and report: every `every` while it runs (0 = never), and once
// at its end.
func NewRendezvousBind(bind string, size int, every time.Duration, ingest Ingest) (*Rendezvous, error) {
	if size <= 0 {
		return nil, fmt.Errorf("bootstrap: rendezvous for world of %d", size)
	}
	addr, err := ListenAddr(bind)
	if err != nil {
		return nil, err
	}
	ln, err := sock.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: rendezvous listen: %w", err)
	}
	return &Rendezvous{ln: sockListener{ln}, size: size, advertised: AdvertiseAddr(bind, ln.Addr()), every: every, ingest: ingest}, nil
}

// Advertised returns the routable address workers should register with. It
// is the single advertised-address accessor; with the default loopback bind
// it equals the listen address.
func (r *Rendezvous) Advertised() string { return r.advertised }

// Serve wires the world: it accepts every rank's registration, answers each
// with the full endpoint book, closes the listener, and leaves the sessions
// running. The timeout bounds the exchange.
//
// Registrations are read concurrently and the book is fanned out to all
// registrants in parallel once complete, so the exchange costs one round
// trip for the whole world instead of N sequential ones — a slow or distant
// rank delays only the final fan-out, never the other ranks' reads.
func (r *Rendezvous) Serve(timeout time.Duration) error {
	defer r.ln.Close()
	deadline := time.Now().Add(timeout)

	// admission is one read registration, or the error that ended it.
	type admission struct {
		s   *session
		err error
	}
	admitted := make(chan admission, r.size)
	acceptErr := make(chan error, 1)

	// Every accepted connection is tracked so a failed or canceled exchange
	// can close them all while registration readers are still in flight; a
	// completed one hands them to the sessions.
	var connMu sync.Mutex
	var conns []conn
	done, wired := false, false
	track := func(c conn) bool {
		connMu.Lock()
		defer connMu.Unlock()
		if done {
			c.Close()
			return false
		}
		conns = append(conns, c)
		return true
	}
	defer func() {
		connMu.Lock()
		done = true
		if !wired {
			for _, c := range conns {
				c.Close()
			}
		}
		connMu.Unlock()
	}()

	go func() {
		if err := r.ln.SetDeadline(deadline); err != nil {
			acceptErr <- err
			return
		}
		for i := 0; i < r.size; i++ {
			conn, err := r.ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			if !track(conn) {
				return
			}
			go func() {
				s, err := r.admit(conn, deadline)
				admitted <- admission{s, err}
			}()
		}
	}()

	sessions := make([]*session, r.size)
	for got := 0; got < r.size; {
		select {
		case err := <-acceptErr:
			if r.closed.Load() {
				return ErrRendezvousClosed
			}
			return fmt.Errorf("bootstrap: rendezvous accept (%d/%d registered): %w", got, r.size, err)
		case a := <-admitted:
			if a.err != nil {
				return a.err
			}
			if sessions[a.s.rank] != nil {
				return fmt.Errorf("bootstrap: rank %d registered twice", a.s.rank)
			}
			sessions[a.s.rank] = a.s
			got++
		}
	}

	book := msg{Kind: kindBook, Book: make([]Endpoint, r.size), Sync: r.ingest != nil, Every: int64(r.every)}
	for rank, s := range sessions {
		book.Book[rank] = s.ep
	}
	record := book.encode() // encoded once for the whole world
	errs := make([]error, r.size)
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.conn.Write(record); err != nil {
				errs[s.rank] = fmt.Errorf("bootstrap: book to rank %d: %w", s.rank, err)
				return
			}
			s.conn.SetDeadline(time.Time{}) // a rank may be silent for the rest of the job
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	wired = true
	r.mu.Lock()
	r.sessions, r.asks = sessions, make(map[uint64]chan string)
	r.mu.Unlock()
	for _, s := range sessions {
		go r.serve(s)
	}
	return nil
}

// admit reads one connection's registration. Every error names it.
func (r *Rendezvous) admit(conn conn, deadline time.Time) (*session, error) {
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, fmt.Errorf("bootstrap: registration: %w", err)
	}
	var m msg
	if err := readRecord(conn, &m); err != nil {
		return nil, fmt.Errorf("bootstrap: registration: %w", err)
	}
	switch {
	case m.Kind != kindRegister:
		return nil, fmt.Errorf("bootstrap: registration expected, got a kind %d record", m.Kind)
	case m.Rank < 0 || m.Rank >= r.size:
		return nil, fmt.Errorf("bootstrap: registration of rank %d in a world of %d", m.Rank, r.size)
	case m.Addr == "":
		return nil, fmt.Errorf("bootstrap: registration of rank %d has no address", m.Rank)
	}
	return &session{rank: m.Rank, ep: Endpoint{Addr: m.Addr, Host: m.Host}, conn: conn, done: make(chan struct{})}, nil
}

// serve runs one rank's session after the book until the rank hangs up, its
// record is bad, or Close cuts it off. However it ends, that is the rank's
// death to the job: every other open session gets a down record naming it,
// final if the rank said bye, and the end is numbered for Ended.
func (r *Rendezvous) serve(s *session) {
	defer func() {
		r.mu.Lock()
		r.sessions[s.rank] = nil
		r.ended = append(r.ended, s.rank)
		r.mu.Unlock()
		s.conn.Close()
		r.broadcast(msg{Kind: kindDown, Rank: s.rank, Final: s.bye}, s.rank)
		close(s.done)
	}()
	for {
		var m msg
		if readRecord(s.conn, &m) != nil {
			return
		}
		switch m.Kind {
		case kindPing:
			s.send(msg{Kind: kindPong, Seq: m.Seq, T: time.Now().UnixNano()})
		case kindReport:
			if r.ingest != nil {
				r.ingest(s.rank, s.ep.Host, []byte(m.Snap), m.Seq, m.Final, time.Now())
			}
		case kindAbort:
			r.broadcast(msg{Kind: kindAbort, Code: m.Code, Origin: s.rank}, s.rank)
		case kindBye:
			s.bye = true
		case kindStacks:
			r.mu.Lock()
			if ch, ok := r.asks[m.ID]; ok {
				ch <- m.Text // buffered, and each id is answered once
				delete(r.asks, m.ID)
			}
			r.mu.Unlock()
		}
	}
}

// send writes one message to the rank. A failure is not acted on here: a
// rank that cannot be written to ends its session on the read side.
func (s *session) send(m msg) {
	s.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	writeRecord(s.conn, m)
}

// broadcast sends m on every open session but except's.
func (r *Rendezvous) broadcast(m msg, except int) {
	r.mu.Lock()
	var open []*session
	for _, s := range r.sessions {
		if s != nil && s.rank != except {
			open = append(open, s)
		}
	}
	r.mu.Unlock()
	for _, s := range open {
		s.send(m)
	}
}

// Abort tells every rank still in session that the launcher aborted the job
// with code; their blocked MPI calls fail with origin AbortOriginLauncher.
func (r *Rendezvous) Abort(code int) {
	r.broadcast(msg{Kind: kindAbort, Code: code, Origin: AbortOriginLauncher}, AbortOriginLauncher)
}

// Stacks asks rank for every goroutine's stack over its session and waits
// up to timeout for the answer. A rank that is stopped, wedged or gone gets
// an error naming it; answers are matched by id, and one that comes after
// its ask gave up is dropped.
func (r *Rendezvous) Stacks(rank int, timeout time.Duration) (string, error) {
	r.mu.Lock()
	if rank < 0 || rank >= len(r.sessions) || r.sessions[rank] == nil {
		r.mu.Unlock()
		return "", fmt.Errorf("bootstrap: rank %d has no open session", rank)
	}
	s := r.sessions[rank]
	r.askSeq++
	id, answer := r.askSeq, make(chan string, 1)
	r.asks[id] = answer
	r.mu.Unlock()

	s.send(msg{Kind: kindStacks, ID: id})
	var err error
	select {
	case text := <-answer:
		return text, nil
	case <-s.done:
		err = fmt.Errorf("bootstrap: rank %d's session ended before it answered", rank)
	case <-time.After(timeout):
		err = fmt.Errorf("bootstrap: rank %d did not answer within %v", rank, timeout)
	}
	r.mu.Lock()
	delete(r.asks, id)
	r.mu.Unlock()
	return "", err
}

// Ended returns the ranks whose sessions have ended, in the order they
// ended. Once Close has returned it holds every rank of a wired world.
func (r *Rendezvous) Ended() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.ended...)
}

// Close ends the rendezvous. An exchange still in progress is canceled:
// Serve returns ErrRendezvousClosed instead of waiting out its timeout. Once
// the world is wired, Close waits for every rank to hang up — a rank does
// when its transport closes or its process exits — so when it returns every
// report a rank sent has been ingested; a session still open ioTimeout later
// is cut off. Safe to call concurrently with Serve and more than once.
func (r *Rendezvous) Close() {
	if r.closed.CompareAndSwap(false, true) {
		r.ln.Close()
	}
	r.mu.Lock()
	var open []*session
	for _, s := range r.sessions {
		if s != nil {
			open = append(open, s)
		}
	}
	r.mu.Unlock()
	cut := time.AfterFunc(ioTimeout, func() {
		for _, s := range open {
			s.conn.Close()
		}
	})
	defer cut.Stop()
	for _, s := range open {
		<-s.done
	}
}
