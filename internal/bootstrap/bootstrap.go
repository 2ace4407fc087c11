// Package bootstrap is the rank↔launcher contract of a true multi-executable
// (MPMD) job: everything a component executable and the launcher that
// started it must agree on, and nothing that only one of them needs. It
// holds the MPH_* environment conventions (Env), both halves of the
// rendezvous exchange that wires the TCP world together (Rendezvous,
// RegisterEndpoint), listener addressing (ListenAddr, AdvertiseAddr), the
// job-wide abort frame, the rank side of the telemetry channel with its
// message types and clock sync, and LineConn, the one bounded line-JSON
// framing of the launch plane.
//
// It is a leaf: it imports nothing heavier than net, encoding/json and
// mpi/perf, so a rank that links it (through tcpnet) links no process
// spawning and no HTTP stack. The launcher proper — placement, spawners,
// the mphd daemon, the telemetry aggregator and its HTTP surface — is
// package mpirun, which imports this package; the dependency arrow is
// mpirun → bootstrap ← tcpnet (DESIGN.md §14).
package bootstrap

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrRendezvousClosed is returned by Serve when the exchange was canceled
// with Close before every rank registered — the launcher's way of tearing
// the rendezvous down promptly once a child has already failed.
var ErrRendezvousClosed = errors.New("bootstrap: rendezvous closed")

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
	// EnvBind is the host or IP worker listeners bind ("" = loopback). The
	// launcher sets it for multi-host jobs so rank listen addresses are
	// routable from other hosts; a wildcard value (0.0.0.0, ::, *) binds all
	// interfaces and advertises a detected routable IP.
	EnvBind = "MPH_BIND"
	// EnvTelemetry is the launcher's telemetry-channel address. When set,
	// every rank dials it at transport init, runs the clock-sync handshake,
	// and pushes perf.Snapshot reports: periodically at
	// perf.EnvStatsInterval, and a final report at shutdown or abort. mphrun
	// sets it for all children when live telemetry is requested.
	EnvTelemetry = "MPH_TELEMETRY"
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

// noHost is the wire placeholder for an empty host label (the exchange is
// whitespace-delimited, so empty strings need a stand-in).
const noHost = "-"

// ListenAddr maps a bind host to the address a job listener should listen
// on: "" keeps the loopback default, anything else (including wildcards)
// binds that host on an ephemeral port.
func ListenAddr(bind string) string {
	switch bind {
	case "":
		return "127.0.0.1:0"
	case "*":
		return net.JoinHostPort("", "0") // ":0" — all interfaces
	default:
		return net.JoinHostPort(bind, "0")
	}
}

// AdvertiseAddr derives the address peers should dial from the bind host
// and the actual listen address: loopback binds advertise themselves,
// wildcard binds substitute a detected routable IP, and explicit binds
// advertise the bound host.
func AdvertiseAddr(bind string, actual net.Addr) string {
	_, port, err := net.SplitHostPort(actual.String())
	if err != nil {
		return actual.String()
	}
	switch {
	case bind == "":
		return actual.String()
	case isWildcard(bind):
		return net.JoinHostPort(RoutableIP(), port)
	default:
		return net.JoinHostPort(bind, port)
	}
}

// isWildcard reports whether a bind host means "all interfaces".
func isWildcard(bind string) bool {
	switch bind {
	case "*", "0.0.0.0", "::", "[::]":
		return true
	}
	return false
}

// RoutableIP returns this host's primary non-loopback IP, the address other
// hosts of a job should dial. It prefers the source address of the default
// route (no packet is sent), falls back to the first global unicast
// interface address, and degrades to loopback on single-interface machines.
func RoutableIP() string {
	if conn, err := net.Dial("udp", "192.0.2.1:9"); err == nil { // TEST-NET-1: route lookup only
		ip := conn.LocalAddr().(*net.UDPAddr).IP
		conn.Close()
		if ip != nil && !ip.IsLoopback() {
			return ip.String()
		}
	}
	if addrs, err := net.InterfaceAddrs(); err == nil {
		for _, a := range addrs {
			ipn, ok := a.(*net.IPNet)
			if !ok || ipn.IP.IsLoopback() || !ipn.IP.IsGlobalUnicast() {
				continue
			}
			return ipn.IP.String()
		}
	}
	return "127.0.0.1"
}

// Rendezvous is the launcher-side address exchange: it accepts one
// connection per rank, collects (rank, listen address, host) triples, and
// answers each with the complete endpoint book.
//
// Wire protocol, line-oriented:
//
//	worker:   "<rank> <addr> [host]\n"        (host "-" or absent = unknown)
//	launcher: "<addr0> <addr1> ... <addrN-1>\n"
//	          "<host0> <host1> ... <hostN-1>\n"
//
// The first reply line alone is the pre-host protocol, so a worker that only
// reads addresses still interoperates.
type Rendezvous struct {
	ln         net.Listener
	size       int
	advertised string

	closed atomic.Bool

	mu   sync.Mutex
	book []Endpoint // complete endpoint book, set when Serve succeeds
}

// NewRendezvous starts the exchange for a world of the given size on a
// loopback port, the right default for single-host jobs.
func NewRendezvous(size int) (*Rendezvous, error) {
	return NewRendezvousBind("", size)
}

// NewRendezvousBind starts the exchange on the given bind host ("" =
// loopback, wildcard = all interfaces with a detected routable IP
// advertised) so workers on other hosts can reach it.
func NewRendezvousBind(bind string, size int) (*Rendezvous, error) {
	if size <= 0 {
		return nil, fmt.Errorf("bootstrap: rendezvous for world of %d", size)
	}
	ln, err := net.Listen("tcp", ListenAddr(bind))
	if err != nil {
		return nil, fmt.Errorf("bootstrap: rendezvous listen: %w", err)
	}
	return &Rendezvous{ln: ln, size: size, advertised: AdvertiseAddr(bind, ln.Addr())}, nil
}

// Advertised returns the routable address workers should register with. It
// is the single advertised-address accessor; with the default loopback bind
// it equals the listen address.
func (r *Rendezvous) Advertised() string { return r.advertised }

// Close cancels the exchange: a Serve in progress returns
// ErrRendezvousClosed instead of waiting out its timeout. Safe to call
// concurrently with Serve and more than once.
func (r *Rendezvous) Close() {
	if r.closed.CompareAndSwap(false, true) {
		r.ln.Close()
	}
}

// Book returns the completed endpoint book (indexed by world rank), or nil
// if Serve has not finished successfully. The launcher uses the addresses to
// reach surviving ranks when broadcasting an abort, and the hosts for its
// per-host failure report.
func (r *Rendezvous) Book() []Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.book == nil {
		return nil
	}
	out := make([]Endpoint, len(r.book))
	copy(out, r.book)
	return out
}

// Serve runs the exchange to completion: it accepts every rank's
// registration, then answers each with the full endpoint book, and closes
// the listener. The timeout bounds the whole exchange.
//
// Registrations are read concurrently and the book is fanned out to all
// registrants in parallel once complete, so the exchange costs one round
// trip for the whole world instead of N sequential ones — a slow or distant
// rank delays only the final fan-out, never the other ranks' reads.
func (r *Rendezvous) Serve(timeout time.Duration) error {
	defer r.ln.Close()
	deadline := time.Now().Add(timeout)

	// registration is one parsed worker hello, or the error that ended it.
	type registration struct {
		rank int
		ep   Endpoint
		conn net.Conn
		err  error
	}
	regCh := make(chan registration, r.size)
	acceptErr := make(chan error, 1)

	// Every accepted connection is tracked so the exchange can be torn down
	// from any exit path while parser goroutines are still in flight.
	var connMu sync.Mutex
	var conns []net.Conn
	done := false
	track := func(c net.Conn) bool {
		connMu.Lock()
		defer connMu.Unlock()
		if done {
			c.Close()
			return false
		}
		conns = append(conns, c)
		return true
	}
	defer func() {
		connMu.Lock()
		done = true
		for _, c := range conns {
			c.Close()
		}
		connMu.Unlock()
	}()

	go func() {
		for i := 0; i < r.size; i++ {
			if l, ok := r.ln.(*net.TCPListener); ok {
				if err := l.SetDeadline(deadline); err != nil {
					acceptErr <- err
					return
				}
			}
			conn, err := r.ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			if !track(conn) {
				return
			}
			go func(conn net.Conn) {
				reg := registration{conn: conn}
				defer func() { regCh <- reg }()
				if err := conn.SetDeadline(deadline); err != nil {
					reg.err = err
					return
				}
				line, err := bufio.NewReader(conn).ReadString('\n')
				if err != nil {
					reg.err = fmt.Errorf("bootstrap: rendezvous read: %w", err)
					return
				}
				fields := strings.Fields(line)
				if len(fields) != 2 && len(fields) != 3 {
					reg.err = fmt.Errorf("bootstrap: malformed registration %q", strings.TrimSpace(line))
					return
				}
				rank, err := strconv.Atoi(fields[0])
				if err != nil || rank < 0 || rank >= r.size {
					reg.err = fmt.Errorf("bootstrap: registration with bad rank %q", fields[0])
					return
				}
				reg.rank = rank
				reg.ep = Endpoint{Addr: fields[1]}
				if len(fields) == 3 && fields[2] != noHost {
					reg.ep.Host = fields[2]
				}
			}(conn)
		}
	}()

	book := make([]Endpoint, r.size)
	registered := make([]net.Conn, r.size)
	for got := 0; got < r.size; {
		select {
		case err := <-acceptErr:
			if r.closed.Load() {
				return ErrRendezvousClosed
			}
			return fmt.Errorf("bootstrap: rendezvous accept (%d/%d registered): %w", got, r.size, err)
		case reg := <-regCh:
			if reg.err != nil {
				return reg.err
			}
			if registered[reg.rank] != nil {
				return fmt.Errorf("bootstrap: rank %d registered twice", reg.rank)
			}
			book[reg.rank] = reg.ep
			registered[reg.rank] = reg.conn
			got++
		}
	}

	reply := []byte(bookReply(book))
	replyErrs := make([]error, r.size)
	var wg sync.WaitGroup
	for rank, conn := range registered {
		wg.Add(1)
		go func(rank int, conn net.Conn) {
			defer wg.Done()
			if _, err := conn.Write(reply); err != nil {
				replyErrs[rank] = fmt.Errorf("bootstrap: rendezvous reply to rank %d: %w", rank, err)
			}
		}(rank, conn)
	}
	wg.Wait()
	for _, err := range replyErrs {
		if err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.book = book
	r.mu.Unlock()
	return nil
}

// bookReply renders the two-line endpoint book reply.
func bookReply(book []Endpoint) string {
	addrs := make([]string, len(book))
	hosts := make([]string, len(book))
	for i, ep := range book {
		addrs[i] = ep.Addr
		if ep.Host == "" {
			hosts[i] = noHost
		} else {
			hosts[i] = ep.Host
		}
	}
	return strings.Join(addrs, " ") + "\n" + strings.Join(hosts, " ") + "\n"
}

// RegisterEndpoint is the worker side of the exchange: it reports this
// rank's advertised endpoint to the rendezvous and returns the full
// endpoint book (indexed by rank).
func RegisterEndpoint(rendezvous string, rank int, ep Endpoint, timeout time.Duration) ([]Endpoint, error) {
	conn, err := net.DialTimeout("tcp", rendezvous, timeout)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: dial rendezvous %s: %w", rendezvous, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	host := ep.Host
	if host == "" {
		host = noHost
	}
	if _, err := fmt.Fprintf(conn, "%d %s %s\n", rank, ep.Addr, host); err != nil {
		return nil, fmt.Errorf("bootstrap: register rank %d: %w", rank, err)
	}
	rd := bufio.NewReader(conn)
	addrLine, err := rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("bootstrap: read address book: %w", err)
	}
	hostLine, err := rd.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("bootstrap: read host book: %w", err)
	}
	addrs := strings.Fields(addrLine)
	hosts := strings.Fields(hostLine)
	if len(hosts) != len(addrs) {
		return nil, fmt.Errorf("bootstrap: host book has %d entries, address book %d", len(hosts), len(addrs))
	}
	if rank >= len(addrs) {
		return nil, fmt.Errorf("bootstrap: address book has %d entries, rank is %d", len(addrs), rank)
	}
	book := make([]Endpoint, len(addrs))
	for i := range addrs {
		book[i] = Endpoint{Addr: addrs[i]}
		if hosts[i] != noHost {
			book[i].Host = hosts[i]
		}
	}
	return book, nil
}
