package bootstrap

import (
	"errors"
	"fmt"
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
	if _, err := NewRendezvous(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewRendezvous(-1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestRendezvousExchange(t *testing.T) {
	const n = 4
	rv, err := NewRendezvous(n)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()

	books := make(chan []Endpoint, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			book, err := RegisterEndpoint(rv.Advertised(), rank, Endpoint{Addr: addrFor(rank)}, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			books <- book
		}(r)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case book := <-books:
			if len(book) != n {
				t.Fatalf("book %v", book)
			}
			for r := 0; r < n; r++ {
				if book[r].Addr != addrFor(r) {
					t.Fatalf("book[%d] = %q", r, book[r].Addr)
				}
			}
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
	if _, err := RegisterEndpoint("127.0.0.1:1", 0, Endpoint{Addr: "x:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestRendezvousRejectsMalformedRegistration(t *testing.T) {
	rv, err := NewRendezvous(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rv.Serve(5 * time.Second) }()
	// A client that sends garbage instead of "rank addr".
	conn, err := dial(rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("garbage line\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("malformed registration accepted")
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
	rv, err := NewRendezvous(2)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(60 * time.Second) }()

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

// TestRendezvousBook checks the endpoint-book accessor the launcher's abort
// broadcast relies on: nil before the exchange completes, the full book in
// rank order afterwards, and safely copied.
func TestRendezvousBook(t *testing.T) {
	const n = 2
	rv, err := NewRendezvous(n)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Book() != nil {
		t.Error("Book non-nil before Serve completed")
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()
	for r := 0; r < n; r++ {
		go RegisterEndpoint(rv.Advertised(), r, Endpoint{Addr: addrFor(r)}, 10*time.Second)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	book := rv.Book()
	if len(book) != n {
		t.Fatalf("Book = %v", book)
	}
	for r := 0; r < n; r++ {
		if book[r].Addr != addrFor(r) {
			t.Errorf("book[%d].Addr = %q, want %q", r, book[r].Addr, addrFor(r))
		}
	}
	book[0].Addr = "mutated"
	if rv.Book()[0].Addr == "mutated" {
		t.Error("Book returned the internal slice, not a copy")
	}
}

// TestRendezvousConcurrentRegistration pins the book fan-out rework: a rank
// that connects first but registers last must not serialize the exchange —
// the other ranks' registrations are read while it stalls, and everyone
// still gets the complete book.
func TestRendezvousConcurrentRegistration(t *testing.T) {
	const n = 4
	rv, err := NewRendezvous(n)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()

	// The stall: connect immediately, say nothing yet. Under the old
	// sequential accept→read loop this blocked every later rank.
	stall, err := dial(rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()

	books := make(chan []Endpoint, n)
	errs := make(chan error, n)
	register := func(rank int) {
		book, err := RegisterEndpoint(rv.Advertised(), rank, Endpoint{Addr: addrFor(rank)}, 10*time.Second)
		if err != nil {
			errs <- err
			return
		}
		books <- book
	}
	for r := 1; r < n; r++ {
		go register(r)
	}
	time.Sleep(300 * time.Millisecond) // the eager ranks' lines are in flight
	// Now the stalled connection finally registers rank 0.
	if _, err := fmt.Fprintf(stall, "0 %s -\n", addrFor(0)); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Read rank 0's reply on the stalled conn so its Write path completes.
		buf := make([]byte, 4096)
		stall.Read(buf)
		books <- nil // placeholder: rank 0's book arrived on the raw conn
	}()

	received := 0
	timeout := time.After(10 * time.Second)
	for received < n {
		select {
		case err := <-errs:
			t.Fatal(err)
		case book := <-books:
			if book != nil {
				for r := 0; r < n; r++ {
					if book[r].Addr != addrFor(r) {
						t.Fatalf("book[%d] = %q", r, book[r].Addr)
					}
				}
			}
			received++
		case <-timeout:
			t.Fatalf("exchange stalled: %d of %d books delivered", received, n)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}
