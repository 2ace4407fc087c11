// Package timemgr is a simulation time manager in the style of the CCSM
// share code: an integer-stepped model clock plus periodic alarms that
// drive coupling, restart, and history events. Climate components advance
// in fixed steps and must agree exactly on when to exchange; floating-point
// time comparison is how couplers deadlock, so the clock counts steps as
// integers and leaves model time to its caller.
package timemgr

import "fmt"

// Clock is an integer model clock: a step counter with an optional stop
// step. Model time is the caller's: steps times its step length.
type Clock struct {
	step  int64
	limit int64 // stop step; <0 means unbounded
}

// NewClock creates a clock stopping after stopSteps steps (negative for
// unbounded).
func NewClock(stopSteps int64) *Clock { return &Clock{limit: stopSteps} }

// Step returns the completed step count.
func (c *Clock) Step() int64 { return c.step }

// Done reports whether the clock reached its stop step.
func (c *Clock) Done() bool { return c.limit >= 0 && c.step >= c.limit }

// Advance moves the clock forward one step. Advancing past the stop step
// is an error — the component loop is broken if it happens.
func (c *Clock) Advance() error {
	if c.Done() {
		return fmt.Errorf("timemgr: advancing a finished clock (step %d)", c.step)
	}
	c.step++
	return nil
}

// Alarm fires every `interval` steps, with an optional offset: it rings
// when (step - offset) is a positive multiple of interval. Alarms are
// evaluated against a clock, so two components with identical clocks agree
// exactly on every ring.
type Alarm struct {
	name     string
	interval int64
	offset   int64
	lastRing int64
}

// NewAlarm creates an alarm ringing every interval steps, first at
// offset+interval.
func NewAlarm(name string, interval, offset int64) (*Alarm, error) {
	if name == "" {
		return nil, fmt.Errorf("timemgr: alarm with no name")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("timemgr: alarm %q with interval %d", name, interval)
	}
	if offset < 0 {
		return nil, fmt.Errorf("timemgr: alarm %q with negative offset %d", name, offset)
	}
	return &Alarm{name: name, interval: interval, offset: offset, lastRing: -1}, nil
}

// Ringing reports whether the alarm rings at the clock's current step. It
// is a pure query; a step rings at most once regardless of how often it is
// asked (use Acknowledge to silence within a step if needed).
func (a *Alarm) Ringing(c *Clock) bool {
	s := c.Step() - a.offset
	return s > 0 && s%a.interval == 0
}

// Schedule bundles a clock with named alarms — one per coupling stream,
// restart cadence, history cadence — so a component's main loop reads as
// "advance; for each ringing alarm, act".
type Schedule struct {
	Clock   *Clock
	alarms  []*Alarm
	ringing []string // Advance's result, reused from step to step
}

// NewSchedule creates a schedule over a clock.
func NewSchedule(clock *Clock) *Schedule { return &Schedule{Clock: clock} }

// AddAlarm registers an alarm; names must be unique.
func (s *Schedule) AddAlarm(name string, interval, offset int64) error {
	for _, a := range s.alarms {
		if a.name == name {
			return fmt.Errorf("timemgr: duplicate alarm %q", name)
		}
	}
	a, err := NewAlarm(name, interval, offset)
	if err != nil {
		return err
	}
	s.alarms = append(s.alarms, a)
	return nil
}

// Advance steps the clock and returns the names of the alarms ringing at
// the new step, in registration order. The slice is the schedule's own,
// valid until the next Advance: a loop that advances every step allocates
// nothing for it.
func (s *Schedule) Advance() ([]string, error) {
	if err := s.Clock.Advance(); err != nil {
		return nil, err
	}
	s.ringing = s.ringing[:0]
	for _, a := range s.alarms {
		if a.Ringing(s.Clock) {
			s.ringing = append(s.ringing, a.name)
		}
	}
	return s.ringing, nil
}
