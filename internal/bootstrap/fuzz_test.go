package bootstrap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mph/internal/mpi/perf"
	"mph/internal/wire"
)

// pipeListener hands a Rendezvous the server ends of in-memory connections,
// so the fuzzer drives Serve and the sessions with no sockets.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, os.ErrClosed
	}
}

func (l *pipeListener) SetDeadline(time.Time) error { return nil }

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

// splitRecords cuts fuzz input into session records by their length
// headers; a last record shorter than its header claims, or shorter than a
// header, is kept as it is.
func splitRecords(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := len(data)
		if n >= 4 {
			n = min(n, 4+int(binary.LittleEndian.Uint32(data)))
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// whole reports whether b is exactly one record, as long as its header says.
func whole(b []byte) bool {
	return len(b) >= 4 && len(b) == 4+int(binary.LittleEndian.Uint32(b))
}

// FuzzSession feeds arbitrary records to the launcher's end of the session
// wire — Serve's registration reads and duplicate check, then the session
// handlers — over two in-memory connections of a world of 2: the first
// record is connection 0's registration, the second connection 1's, and
// later records alternate between them once the book is out. Invariants: no
// panic; a Serve that fails names the registration; one that succeeds sends
// each connection the book of both registrations; a report reaches the
// aggregator beside the host its rank registered; Close returns once both
// ranks hang up.
func FuzzSession(f *testing.F) {
	rec := func(m msg) string { return string(m.encode()) }
	reg := func(rank int) string {
		return rec(msg{Kind: kindRegister, Rank: rank, Addr: fmt.Sprintf("10.0.0.1:%d", 4000+rank), Host: fmt.Sprintf("node-%d", rank)})
	}
	snap := func(s perf.Snapshot) string {
		b, _ := s.AppendBinary(nil)
		return string(b)
	}
	// over is a header claiming one byte more than a record may hold.
	over := func(kind byte) string {
		return string(binary.LittleEndian.AppendUint32(nil, wire.MaxRecordBytes+1)) + string(kind) + "xxxx"
	}
	both := reg(0) + reg(1)
	f.Add([]byte(both))
	f.Add([]byte(both + rec(msg{Kind: kindPing, Seq: 1, T: 5}) + rec(msg{Kind: kindPing, Seq: 2, T: 6})))
	f.Add([]byte(both + rec(msg{Kind: kindReport, Seq: 1, Snap: snap(perf.Snapshot{WorldRank: 1})}) + rec(msg{Kind: kindReport, Seq: 2, Final: true, Snap: snap(perf.Snapshot{Host: "h"})})))
	f.Add([]byte(both + rec(msg{Kind: kindAbort, Code: 9, Origin: 1})))
	f.Add([]byte(both + rec(msg{Kind: kindBye})))                                                             // rank 0 ends cleanly: rank 1 gets a final down
	f.Add([]byte(both + rec(msg{Kind: kindReport, Seq: 1}) + rec(msg{Kind: kindBye})))                        // rank 1's bye
	f.Add([]byte(both + rec(msg{Kind: kindDown, Rank: 1, Final: true}) + rec(msg{Kind: kindDown, Rank: -3}))) // down records go launcher → rank only
	f.Add([]byte(both + rec(msg{Kind: kindBook, Book: []Endpoint{{Addr: "x"}}}) + rec(msg{Kind: kindPong, T: 1}) + reg(0) + rec(msg{Kind: kindReport})))
	f.Add([]byte(reg(0) + reg(2)))                                // a rank out of range
	f.Add([]byte(reg(-1) + reg(0)))                               // a negative rank
	f.Add([]byte(reg(1) + reg(1)))                                // a duplicate rank
	f.Add([]byte(rec(msg{Kind: kindRegister, Rank: 1}) + reg(0))) // no address
	f.Add([]byte(rec(msg{Kind: kindPing, Seq: 1}) + reg(1)))      // not a registration
	f.Add([]byte("0 10.0.0.1:4000 node-0\n1 10.0.0.1:4001 -\n"))  // the retired text wire
	f.Add([]byte(reg(0) + strings.TrimSuffix(reg(1), "1")))       // a registration cut short
	f.Add([]byte(reg(1) + over(kindRegister)))                    // an over-long record
	// Stacks answers: one nobody asked for, empty texts, one over the record bound.
	f.Add([]byte(both + rec(msg{Kind: kindStacks, ID: 7, Text: "goroutine 1 [running]:"})))
	f.Add([]byte(both + rec(msg{Kind: kindStacks, ID: 1}) + rec(msg{Kind: kindStacks})))
	f.Add([]byte(both + over(kindStacks)))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00")) // two registrations of length 0, on streams left open
	f.Fuzz(func(t *testing.T, data []byte) {
		var regs [2][]byte
		var rest [2][][]byte
		for i, r := range splitRecords(data) {
			if i < 2 {
				regs[i] = r
			} else {
				rest[i%2] = append(rest[i%2], r)
			}
		}
		// What Serve will have accepted, should it succeed: the sessions read
		// hosts, so it is filled in before they start.
		var sent [2]msg
		var decoded [2]error
		hosts := map[int]string{}
		for c := range regs {
			if decoded[c] = readRecord(bytes.NewBuffer(regs[c]), &sent[c]); decoded[c] == nil {
				hosts[sent[c].Rank] = sent[c].Host
			}
		}
		ln := &pipeListener{conns: make(chan net.Conn, 2), closed: make(chan struct{})}
		rv := &Rendezvous{ln: ln, size: 2, ingest: func(rank int, host string, _ []byte, _ uint64, _ bool, _ time.Time) {
			if host != hosts[rank] {
				t.Errorf("rank %d's report reached the aggregator with host %q, registered %q", rank, host, hosts[rank])
			}
		}}
		var clients [2]net.Conn
		var books [2]msg
		bookErr := [2]chan error{make(chan error, 1), make(chan error, 1)}
		var wg sync.WaitGroup
		for c := range clients {
			srv, cli := net.Pipe()
			ln.conns <- srv
			clients[c] = cli
			wg.Add(2)
			go func() {
				defer wg.Done()
				cli.Write(regs[c])
				if !whole(regs[c]) {
					cli.Close() // EOF ends a registration cut short
				}
			}()
			go func() { // the book, then pongs, relayed aborts and down records until the pipe closes
				defer wg.Done()
				bookErr[c] <- readRecord(cli, &books[c])
				for readRecord(cli, &msg{}) == nil {
				}
			}()
		}
		err := rv.Serve(time.Minute)
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			wg.Wait()
			if !strings.Contains(err.Error(), "regist") {
				t.Fatalf("Serve failed with %q, which does not name the registration", err)
			}
			return
		}
		for c, cli := range clients {
			if decoded[c] != nil {
				t.Fatalf("Serve accepted registration %q: %v", regs[c], decoded[c])
			}
			if err := <-bookErr[c]; err != nil || books[c].Kind != kindBook || len(books[c].Book) != 2 {
				t.Fatalf("connection %d: got %+v (%v), want the book of two", c, books[c], err)
			}
			for _, s := range sent {
				if want := (Endpoint{Addr: s.Addr, Host: s.Host}); books[c].Book[s.Rank] != want {
					t.Fatalf("book[%d] = %+v, registered %+v", s.Rank, books[c].Book[s.Rank], want)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cli.Close()
				for _, r := range rest[c] {
					if _, err := cli.Write(r); err != nil {
						return
					}
				}
			}()
		}
		rv.Close()
		wg.Wait()
	})
}
