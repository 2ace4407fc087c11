package bootstrap

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"mph/internal/sock"
)

// A rank's session is its one connection to the launcher: the connection it
// registers on at the rendezvous, held open until the rank exits. It is a
// stream of binary records, one message each; record.go lists the kinds with
// their directions and fields. The book goes out once every rank of the
// world has registered. Its sync flag says the launcher aggregates
// telemetry: the rank clock-syncs right after the book, reports every
// `every` nanoseconds (0 = no live reports) and once more, final, when its
// transport closes or the job aborts. A rank's abort is relayed by the
// launcher to every other session with origin set to the sender's rank; the
// launcher's own carries AbortOriginLauncher. The launcher reads EOF when
// the rank hangs up, so once every session has ended every report a rank
// sent is in. A rank's session ending is its death to the job: the launcher
// writes down on every other session, final saying whether the rank said
// bye first (a clean Close, not a crash). A stacks ask is answered under its
// id with the rank's goroutine dump.

// AbortOriginLauncher is the origin rank of an abort the launcher itself
// decided on; a rank's abort carries that rank.
const AbortOriginLauncher = -1

// DefaultClockSyncRounds is how many ping-pong round trips the clock-sync
// handshake performs per rank. The estimate keeps the minimum-RTT round, so
// a handful of rounds suffices to dodge scheduling noise.
const DefaultClockSyncRounds = 8

// ioTimeout bounds every session write after the book and every clock-sync
// round, and how long Rendezvous.Close waits for ranks to hang up: a wedged
// launcher must never stall a rank, nor a wedged rank the launcher.
const ioTimeout = 5 * time.Second

// conn is either end of a session: a *sock.Conn, or a net.Pipe end under
// test.
type conn interface {
	io.ReadWriteCloser
	SetDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// Session is a rank's end of its session with the launcher. Register opens
// it; it then holds the endpoint book, the clock-sync estimate and the
// report period the launcher asked for, carries the rank's reports and
// aborts up, and hands the launcher's aborts to Serve's callback.
type Session struct {
	conn conn
	seq  atomic.Uint64 // last report sequence number

	book      []Endpoint
	reporting bool
	every     time.Duration

	offset, bound int64
	synced        bool

	early []msg // what the launcher sent during clock sync, for Serve
}

// Register opens rank's session with the rendezvous at the given address:
// it registers the rank's endpoint, waits for the book — which comes once
// every rank of the world has registered — and runs the clock-sync rounds
// when the book asks for them. timeout bounds the dial and the wait for the
// book.
func Register(rendezvous string, rank int, self Endpoint, timeout time.Duration) (*Session, error) {
	conn, err := sock.Dial("tcp", rendezvous, timeout)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: dial rendezvous %s=%s: %w", EnvRendezvous, rendezvous, err)
	}
	s := &Session{conn: conn}
	if err := s.open(rank, self, timeout); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// open is Register's exchange on the dialed connection.
func (s *Session) open(rank int, self Endpoint, timeout time.Duration) error {
	if err := s.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if err := writeRecord(s.conn, msg{Kind: kindRegister, Rank: rank, Addr: self.Addr, Host: self.Host}); err != nil {
		return fmt.Errorf("bootstrap: register rank %d: %w", rank, err)
	}
	var book msg
	if err := readRecord(s.conn, &book); err != nil {
		return fmt.Errorf("bootstrap: rank %d: read book: %w", rank, err)
	}
	if book.Kind != kindBook || rank >= len(book.Book) {
		return fmt.Errorf("bootstrap: rank %d: got a kind %d record of %d endpoints, want the book", rank, book.Kind, len(book.Book))
	}
	s.book, s.reporting, s.every = book.Book, book.Sync, time.Duration(book.Every)
	if book.Sync {
		s.clockSync()
	}
	return s.conn.SetDeadline(time.Time{})
}

// clockSync runs the ping-pong rounds and keeps the offset estimate. A round
// that fails ends the handshake with what it has: telemetry must never take
// a rank down.
func (s *Session) clockSync() {
	samples := make([]ClockSample, 0, DefaultClockSyncRounds)
	for i := 0; i < DefaultClockSyncRounds; i++ {
		s.conn.SetDeadline(time.Now().Add(ioTimeout))
		t0 := time.Now().UnixNano()
		if writeRecord(s.conn, msg{Kind: kindPing, Seq: uint64(i), T: t0}) != nil {
			break
		}
		pong, ok := s.nextPong()
		if !ok {
			break
		}
		samples = append(samples, ClockSample{T0: t0, TS: pong.T, T3: time.Now().UnixNano()})
	}
	s.offset, s.bound, s.synced = EstimateClockOffset(samples)
}

// nextPong reads up to the next pong. The book is out, so the launcher may
// already be asking or telling — a stacks ask, an abort, a down record — and
// each such record is kept, in order, for Serve.
func (s *Session) nextPong() (msg, bool) {
	for {
		var m msg
		if readRecord(s.conn, &m) != nil {
			return msg{}, false
		}
		if m.Kind == kindPong {
			return m, true
		}
		s.early = append(s.early, m)
	}
}

// Book returns the job's endpoint book, indexed by world rank.
func (s *Session) Book() []Endpoint { return s.book }

// ReportEvery returns what the launcher asked of this rank's reports: ok is
// false when it takes none; otherwise every is the period of live reports,
// 0 for the final report only.
func (s *Session) ReportEvery() (every time.Duration, ok bool) { return s.every, s.reporting }

// ClockOffset returns the clock-sync result: the estimated
// launcher_clock − rank_clock offset, its half-RTT error bound, and whether
// the handshake produced a usable estimate.
func (s *Session) ClockOffset() (offset, bound int64, ok bool) {
	return s.offset, s.bound, s.synced
}

// Report sends one snapshot, encoded by perf.Snapshot.AppendBinary, to the
// launcher's aggregator; a launcher that takes no reports (ReportEvery)
// drops it. Reports carry a sequence number so the aggregator can drop one
// overtaken by a newer; final marks the rank's last.
func (s *Session) Report(snap []byte, final bool) error {
	return s.send(msg{Kind: kindReport, Seq: s.seq.Add(1), Final: final, Snap: string(snap)})
}

// Bye tells the launcher the session is about to end cleanly: the down record
// the other ranks get says so.
func (s *Session) Bye() error { return s.send(msg{Kind: kindBye}) }

// Abort tells the launcher this rank aborted the job with code; the
// launcher relays it to every other rank.
func (s *Session) Abort(code int) error {
	return s.send(msg{Kind: kindAbort, Code: code})
}

func (s *Session) send(m msg) error {
	s.conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	return writeRecord(s.conn, m)
}

// Serve reads what the launcher sends after the book until the session
// ends — Close, or the launcher hanging up — hands every abort to onAbort
// and every down record to onDown, and answers every stacks ask. The rank a
// down record names comes from outside the process: onDown checks it. Only one
// goroutine may serve a session.
func (s *Session) Serve(onAbort func(code, origin int), onDown func(rank int, final bool)) {
	handle := func(m msg) {
		switch m.Kind {
		case kindAbort:
			onAbort(m.Code, m.Origin)
		case kindDown:
			onDown(m.Rank, m.Final)
		case kindStacks:
			s.send(msg{Kind: kindStacks, ID: m.ID, Text: goroutineStacks(maxStacksBytes)}) //nolint:errcheck // a launcher that misses it times the ask out
		}
	}
	for _, m := range s.early {
		handle(m)
	}
	s.early = nil
	for {
		var m msg
		if readRecord(s.conn, &m) != nil {
			return
		}
		handle(m)
	}
}

// maxStacksBytes caps the dump a stacks answer carries, far inside
// wire.MaxRecordBytes; stacksTruncated ends a dump cut there.
const maxStacksBytes, stacksTruncated = 1 << 20, "\n... goroutine dump truncated\n"

// goroutineStacks returns runtime.Stack's dump of every goroutine, the text
// of a goroutine profile at debug=2. The buffer doubles from 64 KiB up to
// limit; a dump that does not fit even then is cut there and marked.
func goroutineStacks(limit int) string {
	for n := min(64<<10, limit); ; n = min(2*n, limit) {
		buf := make([]byte, n)
		if k := runtime.Stack(buf, true); k < n {
			return string(buf[:k])
		}
		if n == limit {
			return string(buf) + stacksTruncated
		}
	}
}

// Close hangs up: the launcher reads EOF, and Serve returns.
func (s *Session) Close() error { return s.conn.Close() }

// ClockSample is one ping-pong round of the clock-sync handshake, all in
// nanoseconds: T0 is the client's send time and T3 its receive time on the
// client clock; TS is the server's reply time on the server clock.
type ClockSample struct {
	T0 int64 // client clock, ping sent
	TS int64 // server clock, pong sent
	T3 int64 // client clock, pong received
}

// RTT returns the round-trip time of the sample on the client clock.
func (s ClockSample) RTT() int64 { return s.T3 - s.T0 }

// EstimateClockOffset reduces the rounds of one clock-sync handshake to an
// offset estimate: server_clock − client_clock, NTP style. Each round's
// estimate assumes the server's reply timestamp was taken at the midpoint of
// the round trip (offset = TS − (T0+T3)/2); the round with the smallest RTT
// is kept, because midpoint error is bounded by half the RTT — the returned
// bound. ok is false when no sample is usable (none, or negative RTTs from a
// clock step mid-handshake).
func EstimateClockOffset(samples []ClockSample) (offset, bound int64, ok bool) {
	best := -1
	for i, s := range samples {
		if s.RTT() < 0 {
			continue
		}
		if best < 0 || s.RTT() < samples[best].RTT() {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	s := samples[best]
	return s.TS - (s.T0+s.T3)/2, s.RTT() / 2, true
}
