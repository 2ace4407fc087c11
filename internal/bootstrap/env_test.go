package bootstrap

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestEnvValidateAndEnviron(t *testing.T) {
	e := Env{Rank: 1, Size: 4, Rendezvous: "10.0.0.1:4000", Host: "node-b", Bind: "0.0.0.0"}
	if err := e.Validate(); err != nil {
		t.Fatalf("valid env rejected: %v", err)
	}
	got := e.Environ()
	want := []string{
		EnvRank + "=1",
		EnvSize + "=4",
		EnvRendezvous + "=10.0.0.1:4000",
		EnvHost + "=node-b",
		EnvBind + "=0.0.0.0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Environ = %v, want %v", got, want)
	}
	// Optional fields are omitted when unset, so workers never see empty
	// MPH_HOST/MPH_BIND/MPH_REGISTRATION values.
	minimal := Env{Rank: 0, Size: 1, Rendezvous: "a:1"}
	if got := minimal.Environ(); len(got) != 3 {
		t.Errorf("minimal Environ = %v, want 3 entries", got)
	}
	for _, bad := range []Env{
		{Rank: 0, Size: 0, Rendezvous: "a:1"},
		{Rank: 4, Size: 4, Rendezvous: "a:1"},
		{Rank: -1, Size: 4, Rendezvous: "a:1"},
		{Rank: 0, Size: 4},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func TestEnvFromOSCarriesHostAndBind(t *testing.T) {
	t.Setenv(EnvRank, "2")
	t.Setenv(EnvSize, "4")
	t.Setenv(EnvRendezvous, "127.0.0.1:9999")
	t.Setenv(EnvRegistration, "/tmp/map.in")
	t.Setenv(EnvHost, "node-c")
	t.Setenv(EnvBind, "0.0.0.0")
	e, err := EnvFromOS()
	if err != nil {
		t.Fatal(err)
	}
	want := Env{Rank: 2, Size: 4, Rendezvous: "127.0.0.1:9999", Registration: "/tmp/map.in", Host: "node-c", Bind: "0.0.0.0"}
	if e != want {
		t.Fatalf("EnvFromOS = %+v, want %+v", e, want)
	}
}

func TestListenAddr(t *testing.T) {
	cases := map[string]string{
		"":         "127.0.0.1:0",
		"*":        ":0",
		"0.0.0.0":  "0.0.0.0:0",
		"10.1.2.3": "10.1.2.3:0",
		"node-a":   "node-a:0",
	}
	for bind, want := range cases {
		if got := ListenAddr(bind); got != want {
			t.Errorf("ListenAddr(%q) = %q, want %q", bind, got, want)
		}
	}
}

func TestAdvertiseAddr(t *testing.T) {
	actual := &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4321}
	if got := AdvertiseAddr("", actual); got != "127.0.0.1:4321" {
		t.Errorf("loopback bind advertised %q", got)
	}
	if got := AdvertiseAddr("10.1.2.3", actual); got != "10.1.2.3:4321" {
		t.Errorf("explicit bind advertised %q", got)
	}
	got := AdvertiseAddr("0.0.0.0", actual)
	if strings.HasPrefix(got, "0.0.0.0") {
		t.Errorf("wildcard bind advertised the wildcard: %q", got)
	}
	if !strings.HasSuffix(got, ":4321") {
		t.Errorf("wildcard bind lost the port: %q", got)
	}
}

func TestRoutableIPParses(t *testing.T) {
	ip := RoutableIP()
	if net.ParseIP(ip) == nil {
		t.Fatalf("RoutableIP() = %q is not an IP", ip)
	}
}

// TestEndpointExchange covers the three-field protocol end to end: ranks
// register with host labels (one without) and every book carries them back.
func TestEndpointExchange(t *testing.T) {
	const n = 3
	rv, err := NewRendezvous(n)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()

	hostOf := func(rank int) string {
		if rank == 2 {
			return "" // a legacy rank with no host label
		}
		return fmt.Sprintf("node-%d", rank)
	}
	books := make(chan []Endpoint, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			ep := Endpoint{Addr: addrFor(rank), Host: hostOf(rank)}
			book, err := RegisterEndpoint(rv.Advertised(), rank, ep, 10*time.Second)
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
				if book[r].Addr != addrFor(r) || book[r].Host != hostOf(r) {
					t.Fatalf("book[%d] = %+v", r, book[r])
				}
			}
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	// The launcher-side accessor must agree with what workers saw.
	book := rv.Book()
	if len(book) != n || book[0].Host != "node-0" || book[2].Host != "" {
		t.Fatalf("rv.Book() = %+v", book)
	}
}

// TestLegacyRegistration pins wire compatibility: a worker speaking the old
// two-field protocol (no host, reads only the address line) still completes
// the exchange.
func TestLegacyRegistration(t *testing.T) {
	rv, err := NewRendezvous(2)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()

	newDone := make(chan error, 1)
	go func() {
		_, err := RegisterEndpoint(rv.Advertised(), 1, Endpoint{Addr: addrFor(1), Host: "node-1"}, 10*time.Second)
		newDone <- err
	}()

	conn, err := dial(rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "0 %s\n", addrFor(0)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	addrs := strings.Fields(line)
	if len(addrs) != 2 || addrs[0] != addrFor(0) || addrs[1] != addrFor(1) {
		t.Fatalf("legacy address line %q", line)
	}
	if err := <-newDone; err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	if book := rv.Book(); book[0].Host != "" || book[1].Host != "node-1" {
		t.Fatalf("book hosts %+v", book)
	}
}
