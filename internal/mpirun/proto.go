package mpirun

import (
	"fmt"
	"io"
	"sync"

	"mph/internal/wire"
)

// The block protocol is the one way a launcher talks to anything that
// spawns ranks for it: wire records over one connection per (launcher,
// host) pair, whatever carries the bytes — the stdio pipes of an "mphrun
// agent" started locally or through ssh, or a loopback TCP connection to a
// Daemon. The launcher sends requests; the server streams events back. One
// connection carries at most one spawned block, and the block's ranks never
// outlive it: EOF — the launcher died, or the network or ssh session went
// with it — kills every process group the connection spawned. A record its
// reader cannot take ends the connection: the server answers with an error
// event, the launcher fails every rank still pending.
const (
	kindPing    byte = 1 + iota // launcher → server: nothing (liveness probe)
	kindSpawn                   // launcher → server: the block (SpawnBlock.fields)
	kindKill                    // launcher → server: rank, negative for the whole block
	kindPong                    // server → launcher: nothing
	kindSpawned                 // rank, pid
	kindLine                    // rank, stderr, text: one output line without its newline
	kindExit                    // rank, code, text: why the rank could not start ("" if it did)
	kindError                   // text: why the server hangs up
)

// blockRequest is one launcher→server record; which fields mean anything
// depends on Kind.
type blockRequest struct {
	Kind  byte
	Spawn SpawnBlock
	Rank  int
}

// fields codes q's fields for its kind.
func (q *blockRequest) fields(c *wire.Codec) {
	switch q.Kind {
	case kindSpawn:
		q.Spawn.fields(c)
	case kindKill:
		wire.Int(c, &q.Rank)
	}
}

// blockEvent is one server→launcher record; which fields mean anything
// depends on Kind. It is also what the block runner hands its sink, so a
// directly spawned block is never encoded.
type blockEvent struct {
	Kind      byte
	Rank, Pid int
	Stderr    bool // a line from the rank's stderr, not its stdout
	Code      int  // exit status: 127 = could not start, >128 = died to signal code-128
	Text      string
}

// fields codes ev's fields for its kind.
func (ev *blockEvent) fields(c *wire.Codec) {
	switch ev.Kind {
	case kindSpawned:
		wire.Int(c, &ev.Rank)
		wire.Int(c, &ev.Pid)
	case kindLine:
		wire.Int(c, &ev.Rank)
		c.Bool(&ev.Stderr)
		c.String(&ev.Text)
	case kindExit:
		wire.Int(c, &ev.Rank)
		wire.Int(c, &ev.Code)
		c.String(&ev.Text)
	case kindError:
		c.String(&ev.Text)
	}
}

// readKind reads the next record off r, which must be of a kind from lo to
// hi: any other is wire.ErrMalformed. I/O errors are returned bare.
func readKind(r io.Reader, lo, hi byte) (byte, []byte, error) {
	kind, body, err := wire.ReadRecord(r)
	if err == nil && (kind < lo || kind > hi) {
		err = fmt.Errorf("%w: a kind %d record where kinds %d-%d go", wire.ErrMalformed, kind, lo, hi)
	}
	return kind, body, err
}

// readRequest reads the next request into q. A record that does not decode
// whole leaves q holding only its kind: a spawn's rank list is sized from
// its count before the ranks are read, so a half-decoded one can hold more
// than the record's bytes.
func readRequest(r io.Reader, q *blockRequest) error {
	kind, body, err := readKind(r, kindPing, kindKill)
	if *q = (blockRequest{Kind: kind}); err != nil {
		return err
	}
	if err := wire.Decode(body, q.fields); err != nil {
		*q = blockRequest{Kind: kind}
		return err
	}
	return nil
}

// readEvent reads the next event into ev.
func readEvent(r io.Reader, ev *blockEvent) error {
	kind, body, err := readKind(r, kindPong, kindError)
	if *ev = (blockEvent{Kind: kind}); err != nil {
		return err
	}
	return wire.Decode(body, ev.fields)
}

// sender writes one connection's records, each in one Write under the
// connection's lock: several goroutines send on a connection, and an
// agent's stdout is a pipe, where a write longer than PIPE_BUF is not atomic.
type sender struct {
	mu sync.Mutex
	w  io.Writer
}

// send writes one record of the given kind.
func (s *sender) send(kind byte, fields func(*wire.Codec)) error {
	rec := wire.AppendRecord(nil, kind, fields)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(rec)
	return err
}

// request sends q.
func (s *sender) request(q blockRequest) error { return s.send(q.Kind, q.fields) }

// event sends ev.
func (s *sender) event(ev blockEvent) error { return s.send(ev.Kind, ev.fields) }

// SpawnBlock is the wire form of one host-local rank block: the whole
// host's share of the job in a single request, so gang launch costs one
// round trip per host instead of one process creation per rank.
type SpawnBlock struct {
	Size       int    // the world size
	Rendezvous string // the launcher's advertised rendezvous address
	Regdata    string // the registration file's contents ("" = none), written to a file once for the block
	Host       string // the placement host label the ranks report as MPH_HOST
	Bind       string // the listener bind host for every rank ("" = loopback)
	// Env entries (KEY=VALUE) are appended to every rank's environment —
	// the launcher's MPH_* passthrough plus the job's ExtraEnv.
	Env   []string
	Ranks []SpawnRank // the block's processes
}

// SpawnRank is one process of a SpawnBlock.
type SpawnRank struct {
	Rank int      // the world rank
	Argv []string // the command and its arguments
	Env  []string // extra KEY=VALUE pairs for this rank only
}

// fields codes the block: size, rendezvous, regdata, host, bind, env, then
// each rank's rank, argv and env.
func (b *SpawnBlock) fields(c *wire.Codec) {
	wire.Int(c, &b.Size)
	for _, p := range [...]*string{&b.Rendezvous, &b.Regdata, &b.Host, &b.Bind} {
		c.String(p)
	}
	b.Env = stringsField(c, b.Env)
	b.Ranks = wire.Slice(c, b.Ranks, 8+4+4)
	for i := range b.Ranks {
		rk := &b.Ranks[i]
		wire.Int(c, &rk.Rank)
		rk.Argv = stringsField(c, rk.Argv)
		rk.Env = stringsField(c, rk.Env)
	}
}

// stringsField codes a list of strings: a count, then each string.
func stringsField(c *wire.Codec, s []string) []string {
	s = wire.Slice(c, s, 4)
	for i := range s {
		c.String(&s[i])
	}
	return s
}
