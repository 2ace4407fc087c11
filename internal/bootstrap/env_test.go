package bootstrap

import (
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

// TestEndpointExchange covers the endpoint half of the session end to end:
// ranks register with host labels (one without) and every book carries them
// back.
func TestEndpointExchange(t *testing.T) {
	const n = 3
	rv, err := NewRendezvous(n)
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
