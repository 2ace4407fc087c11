//go:build linux

// Package sock is the rank side's socket layer: TCP and Unix stream sockets
// made with the syscall package and wrapped with os.NewFile, so the runtime
// poller serves their reads, writes and deadlines as it serves net's. It
// exists so that nothing a component executable is built from imports net,
// whose cgo name resolver links libc into every rank (DESIGN.md, "What a rank
// links"). Addresses are strings: "ip:port" for TCP, a path for Unix sockets.
// A rank resolves no names; every host is an IP literal. It is Linux-only
// (accept4, SOCK_NONBLOCK and SOCK_CLOEXEC at socket creation), and with it
// every component executable.
package sock

import (
	"errors"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// SplitAddr parses "ip:port", "[ipv6]:port" or ":port". The host of ":port"
// is the zero netip.Addr: every interface, to a listener. A host that is not
// an IP literal is an error.
func SplitAddr(addr string) (netip.Addr, uint16, error) {
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		return netip.Addr{}, 0, errors.New("sock: address " + strconv.Quote(addr) + " has no port")
	}
	host := strings.TrimSuffix(strings.TrimPrefix(addr[:i], "["), "]")
	port, err := strconv.ParseUint(addr[i+1:], 10, 16)
	if err != nil {
		return netip.Addr{}, 0, errors.New("sock: bad port in address " + strconv.Quote(addr))
	}
	if host == "" {
		return netip.Addr{}, uint16(port), nil
	}
	ip, err := netip.ParseAddr(host)
	if err != nil || ip.Zone() != "" {
		return netip.Addr{}, 0, errors.New("sock: host " + strconv.Quote(host) + " is not an IP address (names are resolved by the launcher)")
	}
	return ip, uint16(port), nil
}

// JoinAddr is SplitAddr's inverse.
func JoinAddr(ip netip.Addr, port uint16) string {
	if !ip.IsValid() {
		return ":" + strconv.Itoa(int(port))
	}
	return netip.AddrPortFrom(ip, port).String()
}

// file is what a Conn and a Listener share: the descriptor behind an
// os.File, in the runtime poller.
type file struct {
	f  *os.File
	rc syscall.RawConn
}

func newFile(fd int, name string) file {
	f := os.NewFile(uintptr(fd), name)
	rc, _ := f.SyscallConn() // fails only for a nil *os.File
	return file{f, rc}
}

// rawErr names what ended a raw poller call that did not reach its
// callback: the deadline, or a Close (which os reports as os.ErrClosed only
// from its own Read and Write).
func (s file) rawErr(op string, err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		err = os.ErrClosed
	}
	return &os.PathError{Op: op, Path: s.f.Name(), Err: err}
}

// Close closes the socket, unblocking every pending call on it.
func (s file) Close() error { return s.f.Close() }

// SetDeadline sets the deadline of pending and future calls.
func (s file) SetDeadline(t time.Time) error { return s.f.SetDeadline(t) }

// Conn is a connected stream socket. Read and Write end with a wrapped
// os.ErrDeadlineExceeded past their deadline and os.ErrClosed after Close.
// One goroutine at a time may call Writev.
type Conn struct {
	file

	// Writev's state, kept here so a call allocates nothing: the iovecs, the
	// bytes still to write, what the call wrote and its error, and the
	// poller callback, bound once.
	iov  [2]syscall.Iovec
	rest [2][]byte
	n    int
	err  error
	wfn  func(fd uintptr) bool
}

func newConn(fd int, name string) *Conn {
	c := &Conn{file: newFile(fd, name)}
	c.wfn = c.writev
	return c
}

// Read reads from the socket.
func (c *Conn) Read(p []byte) (int, error) { return c.f.Read(p) }

// Write writes all of p, unless the deadline passes or the socket fails.
func (c *Conn) Write(p []byte) (int, error) { return c.f.Write(p) }

// SetReadDeadline sets the deadline of pending and future reads.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.f.SetReadDeadline(t) }

// SetWriteDeadline sets the deadline of pending and future writes.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.f.SetWriteDeadline(t) }

// CloseWrite shuts down the sending side: the peer reads EOF once it has
// read everything written before, and this end can still read.
func (c *Conn) CloseWrite() error {
	var err error
	if cerr := c.rc.Control(func(fd uintptr) { err = syscall.Shutdown(int(fd), syscall.SHUT_WR) }); cerr != nil {
		return c.rawErr("shutdown", cerr)
	}
	if err != nil {
		return &os.PathError{Op: "shutdown", Path: c.f.Name(), Err: err}
	}
	return nil
}

// Writev writes hdr and then payload with writev, resuming after partial
// writes until both are out, the write deadline passes or the socket fails,
// and returns how many bytes it wrote.
func (c *Conn) Writev(hdr, payload []byte) (int, error) {
	c.rest, c.n, c.err = [2][]byte{hdr, payload}, 0, nil
	err := c.rc.Write(c.wfn)
	n := c.n
	c.rest, c.iov = [2][]byte{}, [2]syscall.Iovec{} // pin no caller memory
	switch {
	case c.err != nil:
		return n, &os.PathError{Op: "writev", Path: c.f.Name(), Err: c.err}
	case err != nil:
		return n, c.rawErr("writev", err)
	}
	return n, nil
}

// writev is Writev's poller callback: false waits for the socket to drain,
// true ends the call, written or failed.
func (c *Conn) writev(fd uintptr) bool {
	for {
		k := 0
		for _, b := range c.rest {
			if len(b) > 0 {
				c.iov[k].Base = &b[0]
				c.iov[k].SetLen(len(b))
				k++
			}
		}
		if k == 0 {
			return true
		}
		n, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&c.iov[0])), uintptr(k))
		switch e {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			c.err = e
			return true
		}
		c.n += int(n)
		for i := range c.rest {
			w := min(int(n), len(c.rest[i]))
			c.rest[i], n = c.rest[i][w:], n-uintptr(w)
		}
	}
}

// Dial connects to addr on network "tcp" or "unix" within timeout (0 = no
// limit): a nonblocking connect, a wait for the socket to turn writable, and
// the outcome read from SO_ERROR.
func Dial(network, addr string, timeout time.Duration) (*Conn, error) {
	family, sa, err := sockaddr(network, addr)
	if err != nil {
		return nil, err
	}
	fd, err := socket(family)
	if err == nil {
		switch err = syscall.Connect(fd, sa); err {
		case nil, syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
			err = nil
		default:
			syscall.Close(fd)
		}
	}
	if err != nil {
		return nil, &os.PathError{Op: "dial " + network, Path: addr, Err: err}
	}
	c := newConn(fd, network+" "+addr)
	if timeout > 0 {
		c.f.SetWriteDeadline(time.Now().Add(timeout))
	}
	var cerr error
	if err := c.rc.Write(func(fd uintptr) bool {
		e, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		if err == nil && e != 0 {
			err = syscall.Errno(e)
		}
		if err != nil {
			cerr = err
			return true
		}
		_, err = syscall.Getpeername(int(fd)) // fails until connected: wait again
		return err == nil
	}); err != nil {
		cerr = err // the deadline: a Close cannot have happened yet
	}
	if cerr == nil {
		cerr = c.f.SetWriteDeadline(time.Time{})
	}
	if cerr != nil {
		c.Close()
		return nil, &os.PathError{Op: "dial " + network, Path: addr, Err: cerr}
	}
	if family != syscall.AF_UNIX {
		tuneTCP(fd)
	}
	return c, nil
}

// sockaddr parses an address of network into a socket family and address.
// A TCP address with no host is the IPv6 wildcard.
func sockaddr(network, addr string) (int, syscall.Sockaddr, error) {
	switch network {
	case "unix":
		return syscall.AF_UNIX, &syscall.SockaddrUnix{Name: addr}, nil
	case "tcp":
		ip, port, err := SplitAddr(addr)
		if err != nil {
			return 0, nil, err
		}
		if ip = ip.Unmap(); ip.Is4() {
			return syscall.AF_INET, &syscall.SockaddrInet4{Port: int(port), Addr: ip.As4()}, nil
		}
		return syscall.AF_INET6, &syscall.SockaddrInet6{Port: int(port), Addr: ip.As16()}, nil
	}
	return 0, nil, errors.New("sock: unknown network " + strconv.Quote(network))
}

// socket makes a close-on-exec, nonblocking stream socket: the launcher
// execs ranks while its listener is open, and the poller needs EAGAIN.
func socket(family int) (int, error) {
	return syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
}

// tuneTCP sets net's defaults on a TCP connection: no Nagle delay, and
// keepalive probes after 15 s idle, every 15 s, 9 of them.
func tuneTCP(fd int) {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9)
}

// Listener is a listening stream socket.
type Listener struct {
	file
	addr string
	tcp  bool
}

// Listen binds addr on network "tcp" or "unix" and listens. An empty TCP
// host binds every interface of both families, or of IPv4 alone on a host
// without IPv6.
func Listen(network, addr string) (*Listener, error) {
	family, sa, err := sockaddr(network, addr)
	if err != nil {
		return nil, err
	}
	fd, err := listen(family, sa)
	if in6, ok := sa.(*syscall.SockaddrInet6); ok && err != nil && strings.HasPrefix(addr, ":") {
		fd, err = listen(syscall.AF_INET, &syscall.SockaddrInet4{Port: in6.Port})
	}
	if err != nil {
		return nil, &os.PathError{Op: "listen " + network, Path: addr, Err: err}
	}
	if family != syscall.AF_UNIX { // the port the kernel chose
		sa, _ = syscall.Getsockname(fd)
		switch sa := sa.(type) {
		case *syscall.SockaddrInet4:
			addr = JoinAddr(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
		case *syscall.SockaddrInet6:
			addr = JoinAddr(netip.AddrFrom16(sa.Addr), uint16(sa.Port))
		}
	}
	return &Listener{file: newFile(fd, network+" "+addr), addr: addr, tcp: family != syscall.AF_UNIX}, nil
}

// listen makes, binds and listens one socket, with address reuse and, for
// IPv6, IPv4 connections too, as net does.
func listen(family int, sa syscall.Sockaddr) (int, error) {
	fd, err := socket(family)
	if err != nil {
		return -1, err
	}
	if family != syscall.AF_UNIX {
		err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}
	if family == syscall.AF_INET6 && err == nil {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if err == nil {
		err = syscall.Bind(fd, sa)
	}
	if err == nil {
		err = syscall.Listen(fd, maxBacklog)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, err
	}
	return fd, nil
}

// maxBacklog is the accept queue a listener asks for: the most listen(2)
// takes, which the kernel caps at net.core.somaxconn itself — the queue net
// gets by reading that file first.
const maxBacklog = 1<<16 - 1

// Accept waits for the next connection. It ends with a wrapped
// os.ErrDeadlineExceeded past the deadline and os.ErrClosed after Close.
func (l *Listener) Accept() (*Conn, error) {
	var fd int
	var aerr error
	if err := l.rc.Read(func(s uintptr) bool {
		for {
			fd, _, aerr = syscall.Accept4(int(s), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if aerr != syscall.EINTR && aerr != syscall.ECONNABORTED {
				return aerr != syscall.EAGAIN
			}
		}
	}); err != nil {
		return nil, l.rawErr("accept", err)
	}
	if aerr != nil {
		return nil, &os.PathError{Op: "accept", Path: l.addr, Err: aerr}
	}
	if l.tcp {
		tuneTCP(fd)
	}
	return newConn(fd, l.f.Name()), nil
}

// Addr returns the bound address: "ip:port" with the port the kernel chose,
// or the socket path.
func (l *Listener) Addr() string { return l.addr }
