package bootstrap

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"mph/internal/sock"
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
		"::":       "[::]:0",
		"[::]":     "[::]:0",
		"10.1.2.3": "10.1.2.3:0",
	}
	for bind, want := range cases {
		if got, err := ListenAddr(bind); err != nil || got != want {
			t.Errorf("ListenAddr(%q) = %q, %v; want %q", bind, got, err, want)
		}
	}
	// A rank resolves no names: a host name in MPH_BIND is an error that
	// names the variable. So is a literal with a zone, or with brackets
	// doubled or around IPv4.
	for _, name := range []string{"node-a", "localhost", "[[::1]]", "[1.2.3.4]", "fe80::1%eth0", "[::1", "::1]"} {
		if _, err := ListenAddr(name); err == nil || !strings.Contains(err.Error(), EnvBind) {
			t.Errorf("ListenAddr(%q): %v, want an error naming %s", name, err, EnvBind)
		}
	}
}

// TestRegisterRejectsNames: a host name in MPH_RENDEZVOUS fails at once,
// naming the variable, instead of spending the dial budget.
func TestRegisterRejectsNames(t *testing.T) {
	start := time.Now()
	_, err := Register("localhost:4000", 0, Endpoint{Addr: "127.0.0.1:1"}, 30*time.Second)
	if err == nil || !strings.Contains(err.Error(), EnvRendezvous) || !strings.Contains(err.Error(), "not an IP address") {
		t.Fatalf("Register with a host name: %v, want an error naming %s", err, EnvRendezvous)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Register took %v to reject a host name", d)
	}
}

func TestAdvertiseAddr(t *testing.T) {
	actual := "127.0.0.1:4321"
	if got := AdvertiseAddr("", actual); got != "127.0.0.1:4321" {
		t.Errorf("loopback bind advertised %q", got)
	}
	// An explicit bind is an IP literal, so the listener reports it as is.
	if got := AdvertiseAddr("10.1.2.3", "10.1.2.3:4321"); got != "10.1.2.3:4321" {
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
	addr := sock.JoinAddr(RoutableIP(), 1)
	if _, _, err := net.SplitHostPort(addr); err != nil || !RoutableIP().IsValid() {
		t.Fatalf("RoutableIP() = %q is not an IP", addr)
	}
}

func TestPickRoutable(t *testing.T) {
	ip := func(s string) sock.Addr {
		a, ok := sock.ParseHost(s)
		if !ok {
			t.Fatalf("ParseHost(%q) failed", s)
		}
		return a
	}
	lo, lo6 := ip("127.0.0.1"), ip("::1")
	cases := []struct {
		name    string
		route   sock.Addr
		ifaddrs []sock.Addr
		want    string
	}{
		{"loopback only", sock.Addr{}, []sock.Addr{lo, lo6}, "127.0.0.1"},
		{"link-local only", sock.Addr{}, []sock.Addr{lo, ip("169.254.3.4"), ip("fe80::1")}, "127.0.0.1"},
		{"global IPv6", sock.Addr{}, []sock.Addr{lo, lo6, ip("fe80::1"), ip("2001:db8::7")}, "2001:db8::7"},
		{"no default route: private fabric", sock.Addr{}, []sock.Addr{lo, ip("10.1.0.5"), ip("10.2.0.5")}, "10.1.0.5"},
		{"default route reports loopback", lo, []sock.Addr{lo, ip("192.168.1.9")}, "192.168.1.9"},
		{"default route wins", ip("10.9.9.9"), []sock.Addr{lo, ip("192.168.1.9")}, "10.9.9.9"},
	}
	for _, c := range cases {
		if got := pickRoutable(c.route, c.ifaddrs); got != ip(c.want) {
			t.Errorf("%s: picked %s, want %s", c.name, sock.JoinAddr(got, 0), c.want)
		}
	}
}

// TestEndpointExchange covers the endpoint half of the session end to end:
// ranks register with host labels (one without) and every book carries them
// back.
func TestEndpointExchange(t *testing.T) {
	const n = 3
	rv, err := NewRendezvousBind("", n, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := serveWorld(rv, 10*time.Second)

	hostOf := func(rank int) string {
		if rank == 2 {
			return "" // a rank with no host label
		}
		return fmt.Sprintf("node-%d", rank)
	}
	sessions := registerAll(t, rv, n, func(rank int) Endpoint { return Endpoint{Addr: addrFor(rank), Host: hostOf(rank)} })
	for rank, s := range sessions {
		defer s.Close()
		book := s.Book()
		if len(book) != n {
			t.Fatalf("rank %d: book %v", rank, book)
		}
		for r := 0; r < n; r++ {
			if book[r].Addr != addrFor(r) || book[r].Host != hostOf(r) {
				t.Fatalf("rank %d: book[%d] = %+v", rank, r, book[r])
			}
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}
