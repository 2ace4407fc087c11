//go:build linux

package sock

import (
	"net/netip"
	"strings"
	"testing"
)

// TestSplitAddr: SplitAddr takes what netip.ParseAddrPort takes but zones,
// and ":port"; brackets go around an IPv6 host and nothing else.
func TestSplitAddr(t *testing.T) {
	for addr, want := range map[string]string{
		"10.0.0.1:5":          "10.0.0.1:5",
		"[::1]:7":             "[::1]:7",
		":9":                  ":9",
		"[::ffff:1.2.3.4]:80": "[::ffff:1.2.3.4]:80",
		"[2001:DB8::0:1]:080": "[2001:db8::1]:80",
		"0.0.0.0:0":           "0.0.0.0:0",
	} {
		ip, port, err := SplitAddr(addr)
		if err != nil || JoinAddr(ip, port) != want {
			t.Errorf("SplitAddr(%q) = %s, %v; want %s", addr, JoinAddr(ip, port), err, want)
		}
	}
	for _, bad := range []string{
		"[::1:80", "::1]:80", "[1.2.3.4]:80", "::1:80", "[[::1]]:80", "[]:80", "[:80",
		"1.2.3.4", "1.2.3.4:", "1.2.3.4:-1", "01.2.3.4:80", "1.2.3:80", "[fe80::1%eth0]:80",
	} {
		if ip, port, err := SplitAddr(bad); err == nil {
			t.Errorf("SplitAddr(%q) = %s, want an error", bad, JoinAddr(ip, port))
		}
	}
}

// FuzzAddr checks the IP-literal codec against net/netip: for any string,
// parseAddr accepts exactly what netip.ParseAddr accepts without a zone, and
// every address it yields, or any 16 or 4 bytes make, formats, unmaps and
// classifies as netip's does; SplitAddr takes what netip.ParseAddrPort
// takes, zones aside, with the same address and port.
func FuzzAddr(f *testing.F) {
	for _, s := range []string{
		"1.2.3.4", "0.0.0.0", "255.255.255.255", "127.0.0.1", "169.254.1.1", "224.0.0.1", "01.2.3.4",
		"::", "::1", "fe80::1", "ff02::1", "2001:db8::68", "::ffff:1.2.3.4", "1:2:3:4:5:6:7:8",
		"1:2:3:4:5:6:1.2.3.4", "::1.2.3.4", "1::", "1:0:0:2:0:0:0:3", "fe80::1%eth0", "1:2:3:4:5:6:7::",
		"[::1]:80", ":80", "1.2.3.4:80", "::1:80", "[1.2.3.4]:80", "abcd:ef01::", "12345::",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := netip.ParseAddr(s)
		got, ok := parseAddr(s)
		if ok != (werr == nil && want.Zone() == "") {
			t.Fatalf("parseAddr(%q) ok = %v; netip: %v, %v", s, ok, want, werr)
		}
		if ok {
			agree(t, got, want)
		}
		if len(s) >= 16 {
			agree(t, AddrFrom16([16]byte([]byte(s[:16]))), netip.AddrFrom16([16]byte([]byte(s[:16]))))
		}
		if len(s) >= 4 {
			agree(t, AddrFrom4([4]byte([]byte(s[:4]))), netip.AddrFrom4([4]byte([]byte(s[:4]))))
		}
		ip, port, err := SplitAddr(s)
		wap, werr := netip.ParseAddrPort(s)
		switch {
		case strings.LastIndexByte(s, ':') == 0:
			// ":port" is SplitAddr's alone.
		case (err == nil) != (werr == nil && wap.Addr().Zone() == ""):
			t.Fatalf("SplitAddr(%q) err = %v; netip: %v", s, err, werr)
		case err == nil && (JoinAddr(ip, port) != wap.String() || port != wap.Port()):
			t.Fatalf("SplitAddr(%q) = %s, %d; netip: %s", s, JoinAddr(ip, port), port, wap)
		}
	})
}

// agree fails t unless ip and netip's want are the same address by every
// method a rank uses.
func agree(t *testing.T, ip Addr, want netip.Addr) {
	t.Helper()
	if got := string(ip.appendTo(nil)); got != want.String() {
		t.Fatalf("%v formats as %q, netip as %q", want, got, want)
	}
	if got, w := JoinAddr(ip, 65535), netip.AddrPortFrom(want, 65535).String(); got != w {
		t.Fatalf("JoinAddr = %q, netip %q", got, w)
	}
	u := ip.Unmap()
	if ip.Is4() != want.Is4() || ip.b != want.As16() || u.Is4() != want.Unmap().Is4() || u.b != want.Unmap().As16() {
		t.Fatalf("%v: Is4 %v, bytes %v, unmapped %v %v", want, ip.Is4(), ip.b, u.Is4(), u.b)
	}
	if ip.IsLoopback() != want.IsLoopback() || ip.IsUnspecified() != want.IsUnspecified() ||
		ip.IsGlobalUnicast() != want.IsGlobalUnicast() || !ip.IsValid() {
		t.Fatalf("%v: loopback %v, unspecified %v, global unicast %v", want, ip.IsLoopback(), ip.IsUnspecified(), ip.IsGlobalUnicast())
	}
}
