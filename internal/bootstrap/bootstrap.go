// Package bootstrap is the rank↔launcher contract of a true multi-executable
// (MPMD) job: everything a component executable and the launcher that
// started it must agree on, and nothing that only one of them needs. It
// holds the MPH_* environment conventions (Env), listener addressing
// (ListenAddr, AdvertiseAddr), and both ends of the one connection a rank
// has to its launcher: the session, a stream of fixed binary records, which
// registers the rank at the rendezvous, brings back the endpoint book, and
// then stays open for the whole job to carry clock sync, telemetry reports
// and aborts (Session on the rank, Rendezvous in the launcher).
//
// It is a leaf: it imports nothing heavier than sock and wire, so a rank
// that links it (through tcpnet) links no process spawning, no HTTP stack,
// not net and not encoding/json. The launcher proper — placement,
// spawners, the mphd daemon, the telemetry aggregator and its HTTP surface —
// is package mpirun, which imports this package; the dependency arrow is
// mpirun → bootstrap ← tcpnet (DESIGN.md §14).
package bootstrap

import (
	"fmt"
	"os"
	"strconv"
	"syscall"

	"mph/internal/sock"
)

// Environment variables carrying the launch context to worker processes.
const (
	// EnvRank is the process's world rank.
	EnvRank = "MPH_RANK"
	// EnvSize is the world size.
	EnvSize = "MPH_NPROCS"
	// EnvRendezvous is the launcher's rendezvous address.
	EnvRendezvous = "MPH_RENDEZVOUS"
	// EnvRegistration is the path of the registration file, forwarded so
	// every executable can name the same file.
	EnvRegistration = "MPH_REGISTRATION"
	// EnvHost is the placement host label the launcher assigned this rank.
	// It feeds the per-rank host topology (mpi.Comm.HostOf); transports fall
	// back to os.Hostname when it is unset.
	EnvHost = "MPH_HOST"
	// EnvBind is the IP worker listeners bind ("" = loopback). The launcher
	// sets it for multi-host jobs so rank listen addresses are routable from
	// other hosts, resolving a host name first; a wildcard value (0.0.0.0,
	// ::, *) binds all interfaces and advertises a detected routable IP.
	EnvBind = "MPH_BIND"
)

// Env is the typed launch context a worker process reads from its
// environment. It replaces the positional (rank, size, rendezvous,
// registration) quadruple that every new launch variable previously forced
// through the whole call chain.
type Env struct {
	// Rank is the process's world rank.
	Rank int
	// Size is the world size.
	Size int
	// Rendezvous is the launcher's rendezvous address.
	Rendezvous string
	// Registration is the registration-file path ("" = none forwarded).
	Registration string
	// Host is the launcher-assigned placement host label ("" = unset).
	Host string
	// Bind is the listener bind host ("" = loopback).
	Bind string
}

// Validate checks the launch context for internal consistency.
func (e Env) Validate() error {
	if e.Size <= 0 {
		return fmt.Errorf("bootstrap: world size %d", e.Size)
	}
	if e.Rank < 0 || e.Rank >= e.Size {
		return fmt.Errorf("bootstrap: rank %d out of world of %d", e.Rank, e.Size)
	}
	if e.Rendezvous == "" {
		return fmt.Errorf("bootstrap: %s not set", EnvRendezvous)
	}
	return nil
}

// Environ renders the context as KEY=VALUE pairs, omitting unset optional
// fields. It is the single place the launcher and its remote agents build a
// worker environment from, so adding a launch variable cannot miss a spawn
// path.
func (e Env) Environ() []string {
	env := []string{
		fmt.Sprintf("%s=%d", EnvRank, e.Rank),
		fmt.Sprintf("%s=%d", EnvSize, e.Size),
		fmt.Sprintf("%s=%s", EnvRendezvous, e.Rendezvous),
	}
	if e.Registration != "" {
		env = append(env, fmt.Sprintf("%s=%s", EnvRegistration, e.Registration))
	}
	if e.Host != "" {
		env = append(env, fmt.Sprintf("%s=%s", EnvHost, e.Host))
	}
	if e.Bind != "" {
		env = append(env, fmt.Sprintf("%s=%s", EnvBind, e.Bind))
	}
	return env
}

// EnvFromOS reads and validates the launch context from the process
// environment.
func EnvFromOS() (Env, error) {
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return Env{}, fmt.Errorf("bootstrap: bad %s: %w", EnvRank, err)
	}
	size, err := strconv.Atoi(os.Getenv(EnvSize))
	if err != nil {
		return Env{}, fmt.Errorf("bootstrap: bad %s: %w", EnvSize, err)
	}
	e := Env{
		Rank:         rank,
		Size:         size,
		Rendezvous:   os.Getenv(EnvRendezvous),
		Registration: os.Getenv(EnvRegistration),
		Host:         os.Getenv(EnvHost),
		Bind:         os.Getenv(EnvBind),
	}
	if err := e.Validate(); err != nil {
		return Env{}, err
	}
	return e, nil
}

// Launched reports whether the process was started by mphrun (or an
// equivalent launcher) and should bootstrap a TCP world.
func Launched() bool {
	return os.Getenv(EnvRank) != "" && os.Getenv(EnvSize) != "" && os.Getenv(EnvRendezvous) != ""
}

// Endpoint is one rank's advertised network identity: the routable address
// of its listener and the placement host label it runs on.
type Endpoint struct {
	// Addr is the rank's listener address ("ip:port"), routable from every
	// other host of the job.
	Addr string
	// Host is the placement host label ("" = unknown).
	Host string
}

// ListenAddr maps a bind host to the address a job listener should listen
// on: "" keeps the loopback default, anything else (including wildcards)
// binds that host on an ephemeral port. A bind host must be an IP literal:
// the launcher resolves a name before it exports MPH_BIND.
func ListenAddr(bind string) (string, error) {
	switch bind {
	case "":
		return "127.0.0.1:0", nil
	case "*":
		return ":0", nil // all interfaces
	}
	ip, ok := sock.ParseHost(bind)
	if !ok {
		return "", fmt.Errorf("bootstrap: %s %q is not an IP address: names are resolved by the launcher", EnvBind, bind)
	}
	return sock.JoinAddr(ip, 0), nil
}

// AdvertiseAddr derives the address peers should dial from the bind host
// and the actual listen address: a wildcard bind advertises a detected
// routable IP on the listener's port, any other the listen address itself.
func AdvertiseAddr(bind, actual string) string {
	host, _ := sock.ParseHost(bind)
	if _, port, err := sock.SplitAddr(actual); err == nil && (bind == "*" || host.IsUnspecified()) {
		return sock.JoinAddr(RoutableIP(), port)
	}
	return actual
}

// RoutableIP returns this host's primary non-loopback IP, the address other
// hosts of a job should dial: the source address of the default route, else
// the first global unicast interface address, else loopback.
func RoutableIP() sock.Addr {
	return pickRoutable(routeSource(), interfaceAddrs())
}

// pickRoutable is RoutableIP's choice over what the host reported.
func pickRoutable(route sock.Addr, ifaddrs []sock.Addr) sock.Addr {
	if route.IsValid() && !route.IsLoopback() && !route.IsUnspecified() {
		return route
	}
	for _, ip := range ifaddrs {
		if !ip.IsLoopback() && ip.IsGlobalUnicast() {
			return ip
		}
	}
	return sock.AddrFrom4([4]byte{127, 0, 0, 1})
}

// routeSource returns the source address the kernel picks for the default
// route, from a UDP socket connected to TEST-NET-1 (connecting sends no
// packet), or the zero Addr when there is no route.
func routeSource() sock.Addr {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return sock.Addr{}
	}
	defer syscall.Close(fd)
	var sa syscall.Sockaddr
	if syscall.Connect(fd, &syscall.SockaddrInet4{Port: 9, Addr: [4]byte{192, 0, 2, 1}}) == nil {
		sa, _ = syscall.Getsockname(fd)
	}
	if in4, ok := sa.(*syscall.SockaddrInet4); ok {
		return sock.AddrFrom4(in4.Addr)
	}
	return sock.Addr{}
}

// interfaceAddrs lists the host's interface addresses in the order of a
// netlink RTM_GETADDR dump, which is net.InterfaceAddrs's order.
func interfaceAddrs() []sock.Addr {
	rib, err := syscall.NetlinkRIB(syscall.RTM_GETADDR, syscall.AF_UNSPEC)
	if err != nil {
		return nil
	}
	msgs, _ := syscall.ParseNetlinkMessage(rib)
	var addrs []sock.Addr
	for _, m := range msgs {
		attrs, _ := syscall.ParseNetlinkRouteAttr(&m) // none but for RTM_NEWADDR
		var addr sock.Addr
		for _, a := range attrs {
			// IFA_LOCAL is the interface's own address; on a point-to-point
			// link IFA_ADDRESS is the peer's.
			if a.Attr.Type == syscall.IFA_LOCAL || a.Attr.Type == syscall.IFA_ADDRESS && !addr.IsValid() {
				switch len(a.Value) {
				case 4:
					addr = sock.AddrFrom4([4]byte(a.Value))
				case 16:
					addr = sock.AddrFrom16([16]byte(a.Value))
				}
			}
		}
		if addr.IsValid() {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}
