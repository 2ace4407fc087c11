//go:build linux

package sock

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IP address without a zone, held as netip.Addr holds one: IPv4
// in its IPv4-mapped form, and whether it is IPv4. The zero Addr is no
// address. Package sock parses, formats and classifies IP literals as
// net/netip does, so that a rank links neither it nor unique and weak.
type Addr struct {
	b [16]byte
	z uint8 // 0: no address, 4: IPv4, 6: IPv6
}

// AddrFrom4 returns the IPv4 address a.
func AddrFrom4(a [4]byte) Addr {
	ip := Addr{b: [16]byte{10: 0xff, 11: 0xff}, z: 4}
	copy(ip.b[12:], a[:])
	return ip
}

// AddrFrom16 returns the IPv6 address a; an IPv4-mapped one stays IPv6.
func AddrFrom16(a [16]byte) Addr { return Addr{b: a, z: 6} }

// IsValid reports whether ip is an address, not the zero Addr.
func (ip Addr) IsValid() bool { return ip.z != 0 }

// Is4 reports whether ip is IPv4; an IPv4-mapped IPv6 address is not.
func (ip Addr) Is4() bool { return ip.z == 4 }

// Unmap turns an IPv4-mapped IPv6 address into its IPv4 address.
func (ip Addr) Unmap() Addr {
	if ip.z == 6 && [12]byte(ip.b[:12]) == [12]byte{10: 0xff, 11: 0xff} {
		ip.z = 4
	}
	return ip
}

// IsLoopback reports whether ip is in 127.0.0.0/8 or is ::1.
func (ip Addr) IsLoopback() bool {
	ip = ip.Unmap()
	return ip.z == 4 && ip.b[12] == 127 || ip.z == 6 && ip.b == [16]byte{15: 1}
}

// IsUnspecified reports whether ip is 0.0.0.0 or ::.
func (ip Addr) IsUnspecified() bool {
	return ip == AddrFrom4([4]byte{}) || ip == (Addr{z: 6})
}

// IsGlobalUnicast reports whether ip is none of the unspecified, limited
// broadcast, loopback, multicast and link-local unicast addresses.
func (ip Addr) IsGlobalUnicast() bool {
	ip = ip.Unmap()
	b, v := ip.b, ip.b[12:]
	multicast := ip.z == 4 && v[0]&0xf0 == 0xe0 || ip.z == 6 && b[0] == 0xff
	linkLocal := ip.z == 4 && v[0] == 169 && v[1] == 254 || ip.z == 6 && b[0] == 0xfe && b[1]&0xc0 == 0x80
	broadcast := ip == AddrFrom4([4]byte{255, 255, 255, 255})
	return ip.IsValid() && !ip.IsUnspecified() && !ip.IsLoopback() && !multicast && !linkLocal && !broadcast
}

// appendTo appends ip as netip.Addr.String formats it: dotted decimal,
// "::ffff:" before an IPv4-mapped address's dotted decimal, else RFC 5952.
func (ip Addr) appendTo(b []byte) []byte {
	if v := ip.b[12:]; ip.Unmap().z == 4 {
		if ip.z == 6 {
			b = append(b, "::ffff:"...)
		}
		return fmt.Appendf(b, "%d.%d.%d.%d", v[0], v[1], v[2], v[3])
	}
	// "::" stands for the first longest run of two or more zero groups.
	zs, ze := -1, -1
	for i := 0; i < 8; i++ {
		j := i
		for j < 8 && ip.b[2*j]|ip.b[2*j+1] == 0 {
			j++
		}
		if j-i >= 2 && j-i > ze-zs {
			zs, ze = i, j
		}
	}
	for i := 0; i < 8; i++ {
		if i == zs {
			b = append(b, ':', ':')
			if i = ze; i == 8 {
				break
			}
		} else if i > 0 {
			b = append(b, ':')
		}
		b = strconv.AppendUint(b, uint64(ip.b[2*i])<<8|uint64(ip.b[2*i+1]), 16)
	}
	return b
}

// JoinAddr formats ip and port as netip.AddrPort.String does, and the zero
// Addr as ":port": SplitAddr's inverse.
func JoinAddr(ip Addr, port uint16) string {
	var b []byte
	switch ip.z {
	case 4:
		b = ip.appendTo(b)
	case 6:
		b = append(ip.appendTo(append(b, '[')), ']')
	}
	return string(strconv.AppendUint(append(b, ':'), uint64(port), 10))
}

// SplitAddr parses "ip:port" or "[ipv6]:port" as netip.ParseAddrPort does
// but refusing zones, and ":port", whose host is the zero Addr: every
// interface, to a listener. A host that is not an IP literal is an error.
func SplitAddr(addr string) (Addr, uint16, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return Addr{}, 0, fmt.Errorf("sock: address %q has no port", addr)
	}
	port, err := strconv.ParseUint(addr[i+1:], 10, 16)
	if err != nil {
		return Addr{}, 0, fmt.Errorf("sock: bad port in address %q", addr)
	}
	if i == 0 {
		return Addr{}, uint16(port), nil
	}
	host := addr[:i]
	ip, ok := ParseHost(host)
	if !ok {
		return Addr{}, 0, fmt.Errorf("sock: host %q is not an IP address (names are resolved by the launcher)", host)
	}
	if ip.z == 6 && host[0] != '[' {
		return Addr{}, 0, fmt.Errorf("sock: address %q has an IPv6 host outside brackets", addr)
	}
	return ip, uint16(port), nil
}

// ParseHost parses a host IP literal: IPv4 in dotted decimal, or IPv6, bare
// or in brackets. Names and IPv6 zones are refused. Launcher and ranks take
// a bind host by this one rule.
func ParseHost(s string) (Addr, bool) {
	bracketed := len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']'
	if bracketed {
		s = s[1 : len(s)-1]
	}
	ip, ok := parseAddr(s)
	if !ok || bracketed && ip.z != 6 {
		return Addr{}, false
	}
	return ip, true
}

// parseAddr takes what netip.ParseAddr takes but zones; ip means nothing unless ok.
func parseAddr(s string) (ip Addr, ok bool) {
	if i := strings.IndexAny(s, ".:"); i >= 0 && s[i] == '.' {
		a, ok := parse4(s)
		return AddrFrom4(a), ok
	}
	a, ok := parse6(s)
	return AddrFrom16(a), ok
}

// parse4 parses dotted decimal: four fields of 0 to 255, no leading zeros.
func parse4(s string) (a [4]byte, ok bool) {
	fs := strings.Split(s, ".")
	for i, f := range fs {
		v, err := strconv.ParseUint(f, 10, 8)
		if err != nil || len(f) > 1 && f[0] == '0' || len(fs) != 4 {
			return a, false
		}
		a[i] = byte(v)
	}
	return a, true
}

// parse6 parses IPv6 as netip does: eight groups of one to four hex digits,
// or fewer around one "::" that stands for at least one zero group; the last
// two groups may be an IPv4 address in dotted decimal.
func parse6(s string) (ip [16]byte, ok bool) {
	head, tail, elided := strings.Cut(s, "::")
	h, hok := groups(head, !elided)
	t, tok := groups(tail, true)
	if !hok || !tok || elided && len(h)+len(t) > 14 || !elided && len(h) != 16 {
		return ip, false
	}
	copy(ip[:], h)
	copy(ip[16-len(t):], t)
	return ip, true
}

// groups parses colon-separated hex groups, the last one possibly dotted
// decimal if tail4, into at most 16 bytes.
func groups(s string, tail4 bool) (b []byte, ok bool) {
	fs := strings.Split(s, ":")
	if s == "" {
		fs = nil
	}
	for i, f := range fs {
		if i == len(fs)-1 && tail4 && strings.IndexByte(f, '.') >= 0 {
			a, ok := parse4(f)
			return append(b, a[:]...), ok && len(b) <= 12
		}
		v, err := strconv.ParseUint(f, 16, 16)
		if err != nil || len(f) > 4 {
			return nil, false
		}
		b = append(b, byte(v>>8), byte(v))
	}
	return b, len(b) <= 16
}
