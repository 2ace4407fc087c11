// Quickstart: the smallest complete MPH program.
//
// Three single-component executables — "atmosphere", "ocean", "coupler" —
// hand-shake through a registration file (SCME mode, paper §4.1), inspect
// the resulting environment, exchange a message addressed by (component,
// local id), and build a joint communicator.
//
// Run it with an in-process world:
//
//	go run ./examples/quickstart -ranks 6
//
// Ranks 0-2 play the atmosphere, 3-4 the ocean, 5 the coupler.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"mph/internal/core"
	"mph/internal/mpi"
)

const registration = `
BEGIN
atmosphere
ocean
coupler
END
`

// launchPlan stands in for the MPMD launcher's rank assignment.
func launchPlan(rank, size int) string {
	switch {
	case rank < size/2:
		return "atmosphere"
	case rank < size-1:
		return "ocean"
	default:
		return "coupler"
	}
}

func main() {
	ranks := flag.Int("ranks", 6, "world size (>= 3)")
	flag.Parse()
	if *ranks < 3 {
		fmt.Fprintln(os.Stderr, "quickstart: need at least 3 ranks")
		os.Exit(1)
	}

	var mu sync.Mutex
	say := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf(format+"\n", args...)
	}

	err := mpi.RunWorld(*ranks, func(c *mpi.Comm) error {
		name := launchPlan(c.Rank(), c.Size())

		// The handshake: every rank calls it with the component name its
		// executable owns. Afterward the anonymous world has become a set
		// of named components.
		s, err := core.SingleComponentSetup(c, core.TextSource(registration), name)
		if err != nil {
			return err
		}

		// Inquiry functions (paper §5.3).
		if s.LocalProcID() == 0 {
			ranks, _ := s.ComponentRanks(name)
			say("%-11s local 0 = world %d; component spans world ranks %v; %d components total",
				name, s.GlobalProcID(), ranks, s.TotalComponents())
		}

		// Name-addressed messaging (paper §5.2): atmosphere's root sends
		// to ocean's local processor 1.
		const tag = 1
		if name == "atmosphere" && s.LocalProcID() == 0 {
			if err := s.SendTo("ocean", 1, tag, []byte("greetings from the atmosphere")); err != nil {
				return err
			}
		}
		if name == "ocean" && s.LocalProcID() == 1 {
			msg, _, err := s.RecvFrom("atmosphere", 0, tag)
			if err != nil {
				return err
			}
			say("ocean local 1 received: %q", msg)
		}

		// Joint communicator (paper §5.1): atmosphere ranks first, ocean
		// ranks second; a collective over the union just works.
		if name == "atmosphere" || name == "ocean" {
			joined, err := s.CommJoin("atmosphere", "ocean")
			if err != nil {
				return err
			}
			sum, err := joined.AllreduceInts([]int64{1}, mpi.OpSum)
			if err != nil {
				return err
			}
			if s.CompName() == "atmosphere" && s.LocalProcID() == 0 {
				say("joined atmosphere+ocean communicator has %d ranks (allreduce says %d)",
					joined.Size(), sum[0])
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}
