package timemgr

import (
	"testing"
	"testing/quick"
)

func TestClockBasics(t *testing.T) {
	c := NewClock(4)
	if c.Step() != 0 || c.Done() {
		t.Fatal("fresh clock state wrong")
	}
	for i := 0; i < 4; i++ {
		if err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Step() != 4 || !c.Done() {
		t.Fatalf("step %d done %v", c.Step(), c.Done())
	}
	if err := c.Advance(); err == nil {
		t.Fatal("advanced past stop step")
	}
}

func TestClockValidationAndUnbounded(t *testing.T) {
	c := NewClock(-1)
	for i := 0; i < 1000; i++ {
		if err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Done() {
		t.Error("unbounded clock finished")
	}
}

func TestAlarmRings(t *testing.T) {
	c := NewClock(20)
	a, err := NewAlarm("couple", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rings []int64
	for !c.Done() {
		c.Advance()
		if a.Ringing(c) {
			rings = append(rings, c.Step())
		}
	}
	want := []int64{5, 10, 15, 20}
	if len(rings) != len(want) {
		t.Fatalf("rings %v", rings)
	}
	for i := range want {
		if rings[i] != want[i] {
			t.Fatalf("rings %v", rings)
		}
	}
}

func TestAlarmOffset(t *testing.T) {
	c := NewClock(12)
	a, _ := NewAlarm("history", 4, 2) // rings at 6, 10
	var rings []int64
	for !c.Done() {
		c.Advance()
		if a.Ringing(c) {
			rings = append(rings, c.Step())
		}
	}
	if len(rings) != 2 || rings[0] != 6 || rings[1] != 10 {
		t.Fatalf("rings %v", rings)
	}
}

func TestAlarmValidation(t *testing.T) {
	if _, err := NewAlarm("", 5, 0); err == nil {
		t.Error("unnamed alarm accepted")
	}
	if _, err := NewAlarm("x", 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewAlarm("x", 5, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestScheduleDrivesLoop(t *testing.T) {
	c := NewClock(12)
	s := NewSchedule(c)
	if err := s.AddAlarm("couple", 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAlarm("restart", 6, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAlarm("couple", 4, 0); err == nil {
		t.Fatal("duplicate alarm accepted")
	}
	if err := s.AddAlarm("bad", 0, 0); err == nil {
		t.Fatal("invalid alarm accepted")
	}
	couples, restarts := 0, 0
	for !c.Done() {
		ringing, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ringing {
			switch name {
			case "couple":
				couples++
			case "restart":
				restarts++
			}
		}
	}
	if couples != 4 || restarts != 2 {
		t.Fatalf("couples %d restarts %d", couples, restarts)
	}
}

func TestTwoClocksAgreeExactly(t *testing.T) {
	// The design point: two components with the same interval agree on
	// every ring step, for any interval/offset — integer arithmetic, no
	// float drift — and the ring count is the closed form.
	prop := func(intervalRaw, offsetRaw uint8, stepsRaw uint16) bool {
		interval := int64(intervalRaw%20) + 1
		offset := int64(offsetRaw % 10)
		steps := int64(stepsRaw % 500)
		c1, c2 := NewClock(steps), NewClock(steps)
		a1, _ := NewAlarm("x", interval, offset)
		a2, _ := NewAlarm("x", interval, offset)
		rings := int64(0)
		for !c1.Done() {
			c1.Advance()
			c2.Advance()
			if a1.Ringing(c1) != a2.Ringing(c2) {
				return false
			}
			if a1.Ringing(c1) {
				rings++
			}
		}
		return rings == max(steps-offset, 0)/interval
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
