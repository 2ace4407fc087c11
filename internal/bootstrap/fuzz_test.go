package bootstrap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mph/internal/mpi/perf"
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

// FuzzSession feeds arbitrary lines to the launcher's end of the session
// wire — Serve's registration reads and duplicate check, then the session
// handlers — over two in-memory connections of a world of 2: the first line
// is connection 0's registration, the second connection 1's, and later lines
// alternate between them once the book is out. Invariants: no panic; a
// Serve that fails names the registration; one that succeeds sends each
// connection the book of both registrations; a report reaches the aggregator
// with a host whenever its rank registered one; Close returns once both
// ranks hang up.
func FuzzSession(f *testing.F) {
	reg := func(rank int) string {
		return fmt.Sprintf(`{"kind":"register","rank":%d,"addr":"10.0.0.1:%d","host":"node-%d"}`, rank, 4000+rank, rank) + "\n"
	}
	both := reg(0) + reg(1)
	f.Add([]byte(both))
	f.Add([]byte(both + `{"kind":"ping","seq":1,"t0":5}` + "\n" + `{"kind":"ping","seq":2,"t0":6}` + "\n"))
	f.Add([]byte(both + `{"kind":"report","seq":1,"snap":{"world_rank":1}}` + "\n" + `{"kind":"report","seq":2,"final":true,"snap":{"host":"h"}}` + "\n"))
	f.Add([]byte(both + `{"kind":"abort","code":9,"origin":1}` + "\n"))
	f.Add([]byte(both + `{"kind":"bye"}` + "\n"))                                                             // rank 0 ends cleanly: rank 1 gets a final down
	f.Add([]byte(both + `{"kind":"report","seq":1}` + "\n" + `{"kind":"bye","final":true}` + "\n"))           // rank 1's bye
	f.Add([]byte(both + `{"kind":"down","rank":1,"final":true}` + "\n" + `{"kind":"down","rank":-3}` + "\n")) // down lines go launcher → rank only
	f.Add([]byte(both + `{"kind":"book","book":[{"addr":"x"}]}` + "\n" + `{"kind":"pong","ts":1}` + "\n" + reg(0) + `{"kind":"report"}` + "\n"))
	f.Add([]byte(reg(0) + reg(2)))                                     // a rank out of range
	f.Add([]byte(reg(-1) + reg(0)))                                    // a negative rank
	f.Add([]byte(reg(1) + reg(1)))                                     // a duplicate rank
	f.Add([]byte(`{"kind":"register","rank":1}` + "\n" + reg(0)))      // no address
	f.Add([]byte(`{"kind":"ping","seq":1}` + "\n" + reg(1)))           // not a registration
	f.Add([]byte("0 10.0.0.1:4000 node-0\n1 10.0.0.1:4001 -\n"))       // the retired text wire
	f.Add([]byte(reg(0) + strings.TrimSuffix(reg(1), "\n")))           // a registration cut short
	f.Add([]byte(reg(1) + strings.Repeat("x", MaxLineBytes+1) + "\n")) // an over-long line
	// Stacks answers: one nobody asked for, empty texts, one over the line bound.
	f.Add([]byte(both + `{"kind":"stacks","id":7,"text":"goroutine 1 [running]:"}` + "\n"))
	f.Add([]byte(both + `{"kind":"stacks","id":1}` + "\n" + `{"kind":"stacks"}` + "\n"))
	f.Add([]byte(both + `{"kind":"stacks","id":1,"text":"` + strings.Repeat("x", MaxLineBytes) + `"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.SplitAfter(data, []byte("\n"))
		var regs [2][]byte
		var rest [2][][]byte
		for i, l := range lines {
			if i < 2 {
				regs[i] = l
			} else {
				rest[i%2] = append(rest[i%2], l)
			}
		}
		// What Serve will have accepted, should it succeed: the sessions read
		// hosts, so it is filled in before they start.
		var sent [2]msg
		hosts := map[int]string{}
		for c := range regs {
			if json.Unmarshal(regs[c], &sent[c]) == nil {
				hosts[sent[c].Rank] = sent[c].Host
			}
		}
		ln := &pipeListener{conns: make(chan net.Conn, 2), closed: make(chan struct{})}
		rv := &Rendezvous{ln: ln, size: 2, ingest: func(rank int, snap perf.Snapshot, _ uint64, _ bool, _ time.Time) {
			if snap.Host == "" && hosts[rank] != "" {
				t.Errorf("rank %d's report reached the aggregator without its registered host %q", rank, hosts[rank])
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
				if !bytes.HasSuffix(regs[c], []byte("\n")) {
					cli.Close() // EOF ends a registration with no newline
				}
			}()
			go func() { // the book, then pongs, relayed aborts and down lines until the pipe closes
				defer wg.Done()
				lc := NewLineConn(cli)
				bookErr[c] <- lc.Recv(&books[c])
				for lc.Recv(&msg{}) == nil {
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
			if err := json.Unmarshal(regs[c], &msg{}); err != nil {
				t.Fatalf("Serve accepted registration %q: %v", regs[c], err)
			}
			if err := <-bookErr[c]; err != nil || books[c].Kind != "book" || len(books[c].Book) != 2 {
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
				for _, l := range rest[c] {
					if _, err := cli.Write(l); err != nil {
						return
					}
				}
			}()
		}
		rv.Close()
		wg.Wait()
	})
}
