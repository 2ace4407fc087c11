package tcpnet

import (
	"math/rand/v2"
	"os"
	"time"
)

// Environment variables tuning how a send judges its own dial and write.
// Whether a peer is alive is not tuned here: the launcher says when a rank's
// session ends (Transport.downDelivered). Every knob has a production-safe
// default; OPERATIONS.md documents when to turn each one.
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
	// EnvFault injects deterministic transport faults for chaos testing;
	// see ParseFaultSpec for the grammar. Never set it in production.
	EnvFault = "MPH_FAULT"
)

// DefaultEagerThreshold is the built-in eager/rendezvous switch point. 64 KiB
// keeps latency-sensitive control traffic on the one-round-trip eager path
// while the extra RTS/CTS round trip amortizes to noise on payloads whose
// copy cost dominates; DESIGN.md §12 shows the P2 sweep behind the number.
const DefaultEagerThreshold = 64 << 10

// maxPooledFrame is the largest frame buffer the frame list and the inbound
// packet pool keep for reuse: the largest eager frame, DefaultEagerThreshold
// payload bytes plus the wire and packet headers.
const maxPooledFrame = DefaultEagerThreshold + 4 + 1 + packetHdrLen

// netConfig is the transport's resolved fault-tolerance tuning.
type netConfig struct {
	dialTimeout  time.Duration // total dial budget including retries
	dialBase     time.Duration // backoff base delay
	dialMax      time.Duration // backoff cap (also the per-attempt dial timeout)
	writeTimeout time.Duration // per-frame write deadline

	// eagerThreshold is the rendezvous switch in payload bytes,
	// DefaultEagerThreshold; tests overwrite it before the first send to
	// reach either protocol at any size.
	eagerThreshold int
}

// defaultConfig returns the built-in tuning.
func defaultConfig() netConfig {
	return netConfig{
		dialTimeout:  DialTimeout,
		dialBase:     50 * time.Millisecond,
		dialMax:      2 * time.Second,
		writeTimeout: 30 * time.Second,

		eagerThreshold: DefaultEagerThreshold,
	}
}

// configFromEnv resolves the tuning from the MPH_* environment variables,
// falling back to defaults for unset or unparsable values.
func configFromEnv() netConfig {
	c := defaultConfig()
	c.dialTimeout = envDuration(EnvDialTimeout, c.dialTimeout)
	c.dialBase = envDuration(EnvDialBackoff, c.dialBase)
	c.dialMax = envDuration(EnvDialBackoffMax, c.dialMax)
	c.writeTimeout = envDuration(EnvWriteTimeout, c.writeTimeout)
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
