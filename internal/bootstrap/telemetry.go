package bootstrap

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mph/internal/mpi/perf"
)

// DefaultClockSyncRounds is how many ping-pong round trips the clock-sync
// handshake performs per rank. The estimate keeps the minimum-RTT round, so
// a handful of rounds suffices to dodge scheduling noise.
const DefaultClockSyncRounds = 8

// TelemetryIOTimeout bounds every read or write on a telemetry connection.
// Telemetry is best-effort diagnostics: a wedged launcher must never stall a
// rank, and a wedged rank must never stall the aggregator.
const TelemetryIOTimeout = 5 * time.Second

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

// TeleMsg is one line of the telemetry wire protocol (LineConn framing over
// TCP, one connection per rank):
//
//	client: {"kind":"hello","rank":R,"host":"H","pid":P}
//	client: {"kind":"ping","seq":i,"t0":<client ns>}     (×K rounds)
//	server: {"kind":"pong","seq":i,"ts":<server ns>}
//	client: {"kind":"report","seq":n,"final":F,"snap":{Snapshot}}
//
// Reports are one-way; the server never writes after the sync rounds.
type TeleMsg struct {
	Kind  string         `json:"kind"`
	Rank  int            `json:"rank,omitempty"`
	Host  string         `json:"host,omitempty"`
	PID   int            `json:"pid,omitempty"`
	Seq   uint64         `json:"seq,omitempty"`
	T0    int64          `json:"t0,omitempty"`
	TS    int64          `json:"ts,omitempty"`
	Final bool           `json:"final,omitempty"`
	Snap  *perf.Snapshot `json:"snap,omitempty"`
}

// TelemetryClient is the rank side of the telemetry channel: one TCP
// connection to the launcher, a clock-sync handshake at dial time, then
// one-way snapshot reports.
type TelemetryClient struct {
	mu     sync.Mutex
	conn   net.Conn
	lc     *LineConn
	seq    uint64
	closed bool

	offset, bound int64
	synced        bool
}

// DialTelemetry connects to the launcher's telemetry endpoint, introduces
// the rank, and runs the clock-sync handshake (DefaultClockSyncRounds
// ping-pong rounds, minimum-RTT midpoint estimate). The handshake result is
// available via ClockOffset; a handshake that fails midway degrades to "no
// offset" rather than failing the dial, because telemetry must never take a
// rank down.
func DialTelemetry(addr string, rank int, host string, pid int, timeout time.Duration) (*TelemetryClient, error) {
	if timeout <= 0 {
		timeout = TelemetryIOTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: dial telemetry %s: %w", addr, err)
	}
	c := &TelemetryClient{conn: conn, lc: NewLineConn(conn)}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := c.lc.Send(TeleMsg{Kind: "hello", Rank: rank, Host: host, PID: pid}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("bootstrap: telemetry hello: %w", err)
	}
	c.clockSync(timeout)
	return c, nil
}

// clockSync runs the ping-pong rounds and stores the offset estimate.
func (c *TelemetryClient) clockSync(timeout time.Duration) {
	samples := make([]ClockSample, 0, DefaultClockSyncRounds)
	for i := 0; i < DefaultClockSyncRounds; i++ {
		t0 := time.Now().UnixNano()
		c.conn.SetWriteDeadline(time.Now().Add(timeout))
		if err := c.lc.Send(TeleMsg{Kind: "ping", Seq: uint64(i), T0: t0}); err != nil {
			break
		}
		c.conn.SetReadDeadline(time.Now().Add(timeout))
		var pong TeleMsg
		if err := c.lc.Recv(&pong); err != nil || pong.Kind != "pong" {
			break
		}
		samples = append(samples, ClockSample{T0: t0, TS: pong.TS, T3: time.Now().UnixNano()})
	}
	if off, bound, ok := EstimateClockOffset(samples); ok {
		c.offset, c.bound, c.synced = off, bound, true
	}
}

// ClockOffset returns the clock-sync result: the estimated
// launcher_clock − rank_clock offset, its half-RTT error bound, and whether
// the handshake produced a usable estimate.
func (c *TelemetryClient) ClockOffset() (offset, bound int64, ok bool) {
	return c.offset, c.bound, c.synced
}

// Report pushes one snapshot to the launcher. Reports carry a sequence
// number so the aggregator can drop reordered arrivals; final marks the
// shutdown (or abort) report that ends the rank's live rate derivation.
func (c *TelemetryClient) Report(snap perf.Snapshot, final bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	c.seq++
	c.conn.SetWriteDeadline(time.Now().Add(TelemetryIOTimeout))
	return c.lc.Send(TeleMsg{Kind: "report", Seq: c.seq, Final: final, Snap: &snap})
}

// Close hangs up the telemetry connection. Safe to call more than once.
func (c *TelemetryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
