package bootstrap

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func TestEnvFromOS(t *testing.T) {
	t.Setenv(EnvRank, "3")
	t.Setenv(EnvSize, "8")
	t.Setenv(EnvRendezvous, "127.0.0.1:9999")
	t.Setenv(EnvRegistration, "/tmp/map.in")
	e, err := EnvFromOS()
	if err != nil {
		t.Fatal(err)
	}
	if e.Rank != 3 || e.Size != 8 || e.Rendezvous != "127.0.0.1:9999" || e.Registration != "/tmp/map.in" {
		t.Fatalf("got %+v", e)
	}
	if !Launched() {
		t.Fatal("Launched() false with full env")
	}
}

func TestEnvFromOSErrors(t *testing.T) {
	cases := []struct {
		name             string
		rank, size, rdzv string
		wantSub          string
	}{
		{"bad rank", "x", "4", "a:1", EnvRank},
		{"bad size", "0", "y", "a:1", EnvSize},
		{"no rendezvous", "0", "4", "", EnvRendezvous},
		{"rank too big", "4", "4", "a:1", "out of world"},
		{"negative rank", "-1", "4", "a:1", "out of world"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(EnvRank, tc.rank)
			t.Setenv(EnvSize, tc.size)
			t.Setenv(EnvRendezvous, tc.rdzv)
			_, err := EnvFromOS()
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

func TestLaunchedFalseWithoutEnv(t *testing.T) {
	t.Setenv(EnvRank, "")
	t.Setenv(EnvSize, "")
	t.Setenv(EnvRendezvous, "")
	if Launched() {
		t.Fatal("Launched() true with empty env")
	}
}

func TestNewRendezvousValidation(t *testing.T) {
	if _, err := NewRendezvousBind("", 0, 0, nil); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewRendezvousBind("", -1, 0, nil); err == nil {
		t.Error("negative size accepted")
	}
}

// serveWorld starts Serve for a rendezvous and returns its result channel.
func serveWorld(rv *Rendezvous, timeout time.Duration) <-chan error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(timeout) }()
	return serveErr
}

// registerAll opens one session per rank concurrently, rank r registering
// endpoint ep(r), and returns them in rank order.
func registerAll(t *testing.T, rv *Rendezvous, n int, ep func(rank int) Endpoint) []*Session {
	t.Helper()
	sessions := make([]*Session, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func() {
			s, err := Register(rv.Advertised(), r, ep(r), 10*time.Second)
			sessions[r] = s
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return sessions
}

func TestRendezvousExchange(t *testing.T) {
	const n = 4
	rv, err := NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := serveWorld(rv, 10*time.Second)
	sessions := registerAll(t, rv, n, func(rank int) Endpoint { return Endpoint{Addr: addrFor(rank)} })
	for rank, s := range sessions {
		defer s.Close()
		book := s.Book()
		if len(book) != n {
			t.Fatalf("rank %d: book %v", rank, book)
		}
		for r := 0; r < n; r++ {
			if book[r].Addr != addrFor(r) {
				t.Fatalf("rank %d: book[%d] = %q", rank, r, book[r].Addr)
			}
		}
		if _, ok := s.ReportEvery(); ok {
			t.Errorf("rank %d: a rendezvous with no aggregator asked for reports", rank)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

func addrFor(rank int) string {
	return "10.0.0.1:" + string(rune('a'+rank)) // any distinct token works: addresses are opaque strings
}

func TestRegisterDialFailure(t *testing.T) {
	if _, err := Register("127.0.0.1:1", 0, Endpoint{Addr: "x:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestRendezvousRejectsMalformedRegistration(t *testing.T) {
	rv, err := NewRendezvousBind("", 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := serveWorld(rv, 5*time.Second)
	// A client that sends garbage instead of a register message.
	conn, err := dial(rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage line\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "registration") {
		t.Fatalf("malformed registration: Serve returned %v, want an error naming the registration", err)
	}
}

// dial is a tiny helper for protocol-level tests.
func dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// TestRendezvousClose is the regression test for the launcher leak: Close
// must make a Serve blocked in Accept return ErrRendezvousClosed promptly
// instead of waiting out its full timeout.
func TestRendezvousClose(t *testing.T) {
	rv, err := NewRendezvousBind("", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := serveWorld(rv, 60*time.Second)

	time.Sleep(20 * time.Millisecond) // let Serve block in Accept
	start := time.Now()
	rv.Close()
	rv.Close() // idempotent
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrRendezvousClosed) {
			t.Fatalf("Serve returned %v, want ErrRendezvousClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("Serve took %v to notice Close", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel Serve")
	}
}

// TestRendezvousConcurrentRegistration pins the book fan-out rework: a rank
// that connects first but registers last must not serialize the exchange —
// the other ranks' registrations are read while it stalls, and everyone
// still gets the complete book.
func TestRendezvousConcurrentRegistration(t *testing.T) {
	const n = 4
	rv, err := NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := serveWorld(rv, 10*time.Second)

	// The stall: connect immediately, say nothing yet. Under the old
	// sequential accept→read loop this blocked every later rank.
	stall, err := dial(rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()

	books := make(chan []Endpoint, n)
	errs := make(chan error, n)
	for r := 1; r < n; r++ {
		go func() {
			s, err := Register(rv.Advertised(), r, Endpoint{Addr: addrFor(r)}, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			books <- s.Book()
		}()
	}
	time.Sleep(300 * time.Millisecond) // the eager ranks' lines are in flight
	// Now the stalled connection finally registers rank 0 and reads its book.
	if err := writeRecord(stall, msg{Kind: kindRegister, Rank: 0, Addr: addrFor(0)}); err != nil {
		t.Fatal(err)
	}
	go func() {
		var book msg
		if err := readRecord(stall, &book); err != nil {
			errs <- err
			return
		}
		books <- book.Book
	}()

	timeout := time.After(10 * time.Second)
	for received := 0; received < n; received++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case book := <-books:
			for r := 0; r < n; r++ {
				if book[r].Addr != addrFor(r) {
					t.Fatalf("book[%d] = %q", r, book[r].Addr)
				}
			}
		case <-timeout:
			t.Fatalf("exchange stalled: %d of %d books delivered", received, n)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}
