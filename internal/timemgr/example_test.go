package timemgr_test

import (
	"fmt"

	"mph/internal/timemgr"
)

// ExampleSchedule drives a component loop with a coupling alarm every 3
// steps and a restart alarm every 6.
func ExampleSchedule() {
	const dt = 0.5
	clock := timemgr.NewClock(6)
	sched := timemgr.NewSchedule(clock)
	sched.AddAlarm("couple", 3, 0)
	sched.AddAlarm("restart", 6, 0)
	for !clock.Done() {
		ringing, _ := sched.Advance()
		if len(ringing) > 0 {
			fmt.Printf("step %d (t=%.1f): %v\n", clock.Step(), float64(clock.Step())*dt, ringing)
		}
	}
	// Output:
	// step 3 (t=1.5): [couple]
	// step 6 (t=3.0): [couple restart]
}
