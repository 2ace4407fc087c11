package bootstrap

import "testing"

func TestEstimateClockOffset(t *testing.T) {
	cases := []struct {
		name    string
		samples []ClockSample
		offset  int64
		bound   int64
		ok      bool
	}{
		{name: "no samples", ok: false},
		{
			name:    "clocks agree, symmetric rtt",
			samples: []ClockSample{{T0: 100, TS: 150, T3: 200}},
			offset:  0, bound: 50, ok: true,
		},
		{
			name:    "server ahead by 1000",
			samples: []ClockSample{{T0: 100, TS: 1150, T3: 200}},
			offset:  1000, bound: 50, ok: true,
		},
		{
			name:    "server behind by 1000",
			samples: []ClockSample{{T0: 2100, TS: 1150, T3: 2200}},
			offset:  -1000, bound: 50, ok: true,
		},
		{
			name: "min rtt round wins",
			samples: []ClockSample{
				{T0: 0, TS: 5000, T3: 1000},    // rtt 1000, noisy
				{T0: 2000, TS: 2060, T3: 2100}, // rtt 100, tight
				{T0: 4000, TS: 9000, T3: 4800}, // rtt 800
			},
			offset: 10, bound: 50, ok: true,
		},
		{
			name:    "negative rtt skipped",
			samples: []ClockSample{{T0: 500, TS: 400, T3: 100}},
			ok:      false,
		},
		{
			name: "negative rtt skipped, good round kept",
			samples: []ClockSample{
				{T0: 500, TS: 400, T3: 100},
				{T0: 100, TS: 150, T3: 200},
			},
			offset: 0, bound: 50, ok: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			offset, bound, ok := EstimateClockOffset(c.samples)
			if ok != c.ok {
				t.Fatalf("ok = %v, want %v", ok, c.ok)
			}
			if !ok {
				return
			}
			if offset != c.offset || bound != c.bound {
				t.Errorf("offset, bound = %d, %d; want %d, %d", offset, bound, c.offset, c.bound)
			}
		})
	}
}
