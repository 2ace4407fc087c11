package tcpnet

import (
	"testing"
	"time"
)

// TestFaultBackoffSchedule pins the retry schedule down with an injected
// jitter source: jitter 1.0 yields the full exponential ceiling (base,
// 2*base, 4*base, ... capped at max) and jitter 0.0 yields exactly half of
// it — the "equal jitter" strategy's bounds.
func TestFaultBackoffSchedule(t *testing.T) {
	cases := []struct {
		name   string
		jitter float64
		want   []time.Duration
	}{
		{
			name:   "ceiling",
			jitter: 1.0,
			want: []time.Duration{
				50 * time.Millisecond,
				100 * time.Millisecond,
				200 * time.Millisecond,
				400 * time.Millisecond,
				500 * time.Millisecond, // capped at max
				500 * time.Millisecond,
			},
		},
		{
			name:   "floor",
			jitter: 0.0,
			want: []time.Duration{
				25 * time.Millisecond,
				50 * time.Millisecond,
				100 * time.Millisecond,
				200 * time.Millisecond,
				250 * time.Millisecond,
				250 * time.Millisecond,
			},
		},
		{
			name:   "midpoint",
			jitter: 0.5,
			want: []time.Duration{
				37500 * time.Microsecond,
				75 * time.Millisecond,
				150 * time.Millisecond,
				300 * time.Millisecond,
				375 * time.Millisecond,
				375 * time.Millisecond,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bo := &backoff{
				base:   50 * time.Millisecond,
				max:    500 * time.Millisecond,
				jitter: func() float64 { return tc.jitter },
			}
			for i, want := range tc.want {
				if got := bo.next(); got != want {
					t.Errorf("attempt %d: got %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestFaultBackoffShiftCap runs the schedule far past 30 doublings: the
// shift is clamped so the duration arithmetic never overflows into a
// negative or zero wait.
func TestFaultBackoffShiftCap(t *testing.T) {
	bo := &backoff{
		base:   time.Millisecond,
		max:    time.Second,
		jitter: func() float64 { return 1.0 },
	}
	for i := 0; i < 100; i++ {
		if got := bo.next(); got <= 0 || got > time.Second {
			t.Fatalf("attempt %d: wait %v escaped (0, max]", i, got)
		}
	}
}

// TestFaultConfigFromEnv checks that every fault-tolerance knob is read from
// its environment variable and that unset, garbage, and nonpositive values
// fall back to the defaults.
func TestFaultConfigFromEnv(t *testing.T) {
	t.Setenv(EnvDialTimeout, "3s")
	t.Setenv(EnvDialBackoff, "10ms")
	t.Setenv(EnvDialBackoffMax, "1s")
	t.Setenv(EnvWriteTimeout, "7s")
	cfg := configFromEnv()
	if cfg.dialTimeout != 3*time.Second || cfg.dialBase != 10*time.Millisecond ||
		cfg.dialMax != time.Second || cfg.writeTimeout != 7*time.Second {
		t.Errorf("configFromEnv ignored the environment: %+v", cfg)
	}

	def := defaultConfig()
	t.Setenv(EnvDialTimeout, "not-a-duration")
	t.Setenv(EnvDialBackoff, "-5ms")
	t.Setenv(EnvDialBackoffMax, "")
	if cfg := configFromEnv(); cfg.dialTimeout != def.dialTimeout ||
		cfg.dialBase != def.dialBase || cfg.dialMax != def.dialMax {
		t.Errorf("bad values did not fall back to defaults: %+v", cfg)
	}
}
