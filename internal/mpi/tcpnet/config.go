package tcpnet

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"mph/internal/mpi"
)

// Environment variables tuning the transport's fault-tolerance behavior.
// Every knob has a production-safe default; OPERATIONS.md documents when to
// turn each one.
const (
	// EnvDialTimeout is the total budget for establishing one outbound
	// connection, including every backoff retry (default 30s).
	EnvDialTimeout = "MPH_DIAL_TIMEOUT"
	// EnvDialBackoff is the base delay of the exponential dial backoff
	// (default 50ms). Successive retries double it, with jitter.
	EnvDialBackoff = "MPH_DIAL_BACKOFF"
	// EnvDialBackoffMax caps the per-retry backoff delay (default 2s).
	EnvDialBackoffMax = "MPH_DIAL_BACKOFF_MAX"
	// EnvWriteTimeout bounds one frame write on an established connection
	// (default 30s). A peer that stops draining its socket for longer is
	// treated as failed.
	EnvWriteTimeout = "MPH_WRITE_TIMEOUT"
	// EnvHeartbeat is the idle interval after which a heartbeat frame is
	// written on an established outbound connection (default 2s), keeping
	// the peer's read-side failure detector fed.
	EnvHeartbeat = "MPH_HEARTBEAT"
	// EnvPeerTimeout is how long an inbound connection may stay silent —
	// and how long a lost connection may stay unre-established — before the
	// peer behind it is declared dead (default 8s). It must comfortably
	// exceed EnvHeartbeat.
	EnvPeerTimeout = "MPH_PEER_TIMEOUT"
	// EnvFault injects deterministic transport faults for chaos testing;
	// see ParseFaultSpec for the grammar. Never set it in production.
	EnvFault = "MPH_FAULT"
	// EnvEagerThreshold is the eager/rendezvous protocol switch in payload
	// bytes (default DefaultEagerThreshold): payloads of at least this many
	// bytes are sent with the RTS/CTS rendezvous protocol, smaller ones with
	// the eager copy-into-frame path. 0 forces rendezvous for every non-empty
	// payload; a negative value disables rendezvous entirely. Every rank of a
	// job should see the same value (the launcher propagates the
	// environment), though nothing breaks if they differ — the protocol is
	// chosen per sender.
	EnvEagerThreshold = "MPH_EAGER_THRESHOLD"
	// EnvShm gates the intra-host shared-memory payload channel (DESIGN.md
	// §12): "on" (the default — boolean-ish values per mpi.EnvBool) moves
	// rendezvous payloads between same-host ranks over a per-peer
	// Unix-domain socket negotiated at hello time, falling back to TCP
	// transparently when negotiation or a local write fails; "off" keeps
	// everything on TCP; "force" turns a would-be fallback for a same-host
	// peer into a hard send error (test aid — never set it in production).
	EnvShm = "MPH_SHM"
)

// DefaultEagerThreshold is the built-in eager/rendezvous switch point. 64 KiB
// keeps latency-sensitive control traffic on the one-round-trip eager path
// while the extra RTS/CTS round trip amortizes to noise on payloads whose
// copy cost dominates; DESIGN.md §12 shows the P2 sweep behind the number.
const DefaultEagerThreshold = 64 << 10

// maxPooledFrameCeiling caps how large a pooled frame buffer may grow no
// matter how high MPH_EAGER_THRESHOLD is raised: beyond 8 MiB, a list of
// per-connection scratch frames pins more memory than the copy it avoids is
// worth, and the rendezvous path should carry the payload anyway.
const maxPooledFrameCeiling = 8 << 20

// shmMode is the resolved EnvShm setting.
type shmMode uint8

const (
	// shmOn selects the intra-host channel when peers share a host and
	// falls back to TCP when it cannot be used. The default.
	shmOn shmMode = iota
	// shmOff keeps every payload on TCP.
	shmOff
	// shmForce fails a same-host send that cannot use the intra-host
	// channel instead of falling back to TCP (test aid).
	shmForce
)

// shmFromEnv resolves EnvShm. "force" is matched before the boolean parse so
// it never trips EnvBool's garbage warning.
func shmFromEnv() shmMode {
	if strings.EqualFold(strings.TrimSpace(os.Getenv(EnvShm)), "force") {
		return shmForce
	}
	if mpi.EnvBool(EnvShm, true) {
		return shmOn
	}
	return shmOff
}

// netConfig is the transport's resolved fault-tolerance tuning.
type netConfig struct {
	dialTimeout  time.Duration // total dial budget including retries
	dialBase     time.Duration // backoff base delay
	dialMax      time.Duration // backoff cap (also the per-attempt dial timeout)
	writeTimeout time.Duration // per-frame write deadline
	heartbeat    time.Duration // idle interval before a heartbeat is written
	peerTimeout  time.Duration // inbound silence / reconnect window before peer death

	eagerThreshold int // rendezvous switch in payload bytes; negative disables

	// maxPooledFrame is the largest frame buffer the frame list keeps for reuse,
	// derived from the resolved eager threshold (not the default — a job
	// that raises MPH_EAGER_THRESHOLD must still recycle its eager frames)
	// and capped at maxPooledFrameCeiling.
	maxPooledFrame int

	// shm selects the intra-host payload channel mode (EnvShm).
	shm shmMode
}

// defaultConfig returns the built-in tuning.
func defaultConfig() netConfig {
	return netConfig{
		dialTimeout:  DialTimeout,
		dialBase:     50 * time.Millisecond,
		dialMax:      2 * time.Second,
		writeTimeout: 30 * time.Second,
		heartbeat:    2 * time.Second,
		peerTimeout:  8 * time.Second,

		eagerThreshold: DefaultEagerThreshold,
		maxPooledFrame: pooledFrameCap(DefaultEagerThreshold),
	}
}

// pooledFrameCap derives the frame list's size cap from the resolved eager
// threshold: the largest eager frame is threshold payload bytes plus the wire
// and packet headers. A disabled (negative) or forced-rendezvous (zero)
// threshold keeps the default-sized cap so small frames still recycle, and
// the ceiling stops a huge threshold from pinning huge scratch buffers.
func pooledFrameCap(threshold int) int {
	if threshold <= 0 {
		threshold = DefaultEagerThreshold
	}
	if threshold > maxPooledFrameCeiling {
		threshold = maxPooledFrameCeiling
	}
	return threshold + 4 + 1 + packetHdrLen
}

// configFromEnv resolves the tuning from the MPH_* environment variables,
// falling back to defaults for unset or unparsable values.
func configFromEnv() netConfig {
	c := defaultConfig()
	c.dialTimeout = envDuration(EnvDialTimeout, c.dialTimeout)
	c.dialBase = envDuration(EnvDialBackoff, c.dialBase)
	c.dialMax = envDuration(EnvDialBackoffMax, c.dialMax)
	c.writeTimeout = envDuration(EnvWriteTimeout, c.writeTimeout)
	c.heartbeat = envDuration(EnvHeartbeat, c.heartbeat)
	c.peerTimeout = envDuration(EnvPeerTimeout, c.peerTimeout)
	if v := os.Getenv(EnvEagerThreshold); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			c.eagerThreshold = n // negative means "rendezvous disabled", so no clamp
		}
	}
	c.maxPooledFrame = pooledFrameCap(c.eagerThreshold)
	c.shm = shmFromEnv()
	return c
}

// envDuration parses a duration environment variable, returning def when the
// variable is unset, unparsable, or nonpositive (a broken knob must degrade
// to the default, never to zero timeouts).
func envDuration(name string, def time.Duration) time.Duration {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return def
	}
	return d
}

// backoff computes the retry delay schedule for dialing: exponential growth
// from base, capped at max, with "equal jitter" (half the nominal delay is
// kept, the other half is scaled by a uniform random factor) so a cohort of
// ranks retrying against one slow peer does not arrive in lockstep.
//
// The zero delay schedule is deterministic given an injected jitter source,
// which is what the table-driven tests exploit.
type backoff struct {
	base, max time.Duration
	attempt   int
	jitter    func() float64 // uniform in [0,1); nil selects math/rand
}

// next returns the delay to wait before the upcoming retry and advances the
// schedule.
func (b *backoff) next() time.Duration {
	d := b.base
	if d <= 0 {
		d = time.Millisecond
	}
	// Cap the shift at 30 doublings: a base of at least 1ms shifted 30 times
	// is already ~12 days — far past any sane max cap — while staying well
	// clear of int64 overflow, which a shift in the 60s would not.
	shift := b.attempt
	if shift > 30 {
		shift = 30
	}
	d <<= uint(shift)
	if b.max > 0 && d > b.max {
		d = b.max
	}
	b.attempt++
	half := d / 2
	j := b.jitter
	if j == nil {
		j = rand.Float64
	}
	return half + time.Duration(j()*float64(d-half))
}
