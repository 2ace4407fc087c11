package bootstrap

import (
	"fmt"
	"io"

	"mph/internal/wire"
)

// A session is a stream of wire records; msg.fields lists each kind's
// fields. A record of an unknown kind, over wire.MaxRecordBytes, or whose
// fields do not fill it exactly ends the session.
const (
	kindRegister byte = 1 + iota // rank → launcher: rank, addr, host
	kindBook                     // launcher → rank: sync, every, then addr and host by rank
	kindPing                     // rank → launcher: seq, t (rank clock)
	kindPong                     // launcher → rank: seq, t (launcher clock)
	kindReport                   // rank → launcher: seq, final, snapshot (perf.Snapshot.AppendBinary)
	kindAbort                    // either way: code, origin
	kindBye                      // rank → launcher: nothing
	kindDown                     // launcher → rank: rank, final
	kindStacks                   // the ask launcher → rank and its answer: id, text
	numKinds
)

// msg is one session record; which fields mean anything depends on Kind.
type msg struct {
	Kind               byte
	Rank, Code, Origin int
	Addr, Host, Text   string
	Snap               string // a report's perf.Snapshot.AppendBinary bytes
	Book               []Endpoint
	Sync, Final        bool
	Every, T           int64
	Seq, ID            uint64
}

// fields codes m's fields for its kind.
func (m *msg) fields(c *wire.Codec) {
	switch m.Kind {
	case kindRegister:
		wire.Int(c, &m.Rank)
		c.String(&m.Addr)
		c.String(&m.Host)
	case kindBook:
		c.Bool(&m.Sync)
		wire.Int(c, &m.Every)
		m.Book = wire.Slice(c, m.Book, 4+4)
		for i := range m.Book {
			c.String(&m.Book[i].Addr)
			c.String(&m.Book[i].Host)
		}
	case kindPing, kindPong:
		wire.Int(c, &m.Seq)
		wire.Int(c, &m.T)
	case kindReport:
		wire.Int(c, &m.Seq)
		c.Bool(&m.Final)
		c.String(&m.Snap)
	case kindAbort:
		wire.Int(c, &m.Code)
		wire.Int(c, &m.Origin)
	case kindDown:
		wire.Int(c, &m.Rank)
		c.Bool(&m.Final)
	case kindStacks:
		wire.Int(c, &m.ID)
		c.String(&m.Text)
	}
}

// encode returns m as one record.
func (m *msg) encode() []byte { return wire.AppendRecord(nil, m.Kind, m.fields) }

// writeRecord writes m as one record in one Write. *sock.Conn, through the
// runtime poller, and net.Pipe keep a Write whole against concurrent
// writers, so the senders on a session take no lock of their own.
func writeRecord(w io.Writer, m msg) error {
	_, err := w.Write(m.encode())
	return err
}

// readRecord reads the next record into m. I/O errors are returned bare.
func readRecord(r io.Reader, m *msg) error {
	kind, body, err := wire.ReadRecord(r)
	if err != nil {
		return err
	}
	if kind == 0 || kind >= numKinds {
		return fmt.Errorf("%w: session record of kind %d", wire.ErrMalformed, kind)
	}
	*m = msg{Kind: kind}
	if err := wire.Decode(body, m.fields); err != nil {
		return fmt.Errorf("%w: session record of kind %d, %d bytes", err, kind, len(body)+1)
	}
	return nil
}
