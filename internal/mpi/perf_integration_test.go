package mpi_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mph/internal/mpi"
)

// Counter-accuracy property under seeded matching-order torture: every rank
// derives the same pseudo-random schedule, sends its share, and receives
// everything addressed to it through a mix of exact and wildcard receives.
// Afterwards the performance variables must reconcile exactly:
//
//   - both queues drain to zero on every rank,
//   - every arrival was matched (unexpected + posted == total received),
//   - per-peer receive counts cover the schedule,
//   - job-wide sent totals equal job-wide received totals.
func TestPerfCounterReconciliation(t *testing.T) {
	const (
		ranks    = 5
		messages = 400
	)
	type slot struct {
		src, dst, tag int
		length        int
	}
	for _, seed := range []int64{3, 11, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schedule := make([]slot, messages)
			for i := range schedule {
				schedule[i] = slot{
					src:    rng.Intn(ranks),
					dst:    rng.Intn(ranks),
					tag:    rng.Intn(4),
					length: rng.Intn(128),
				}
			}
			// The schedule's per-rank traffic matrix, for the assertions.
			sentTo := make([][]uint64, ranks) // [src][dst] messages
			for i := range sentTo {
				sentTo[i] = make([]uint64, ranks)
			}
			for _, s := range schedule {
				sentTo[s.src][s.dst]++
			}

			w, err := mpi.NewWorld(ranks)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			w.EnableTracing(1 << 12)

			err = w.Run(func(c *mpi.Comm) error {
				for _, s := range schedule {
					if s.src != c.Rank() {
						continue
					}
					if err := c.Send(s.dst, s.tag, make([]byte, s.length)); err != nil {
						return err
					}
				}
				// Tags 0-1 are consumed with exact (src, tag) receives,
				// tags 2-3 with wildcard-source receives — so both kinds of
				// receive are counted. Wildcards never poach from
				// the exact receives because they name a different tag.
				type key struct{ src, tag int }
				exact := make(map[key]int)
				wildcard := make(map[int]int) // tag -> count
				for _, s := range schedule {
					if s.dst != c.Rank() {
						continue
					}
					if s.tag < 2 {
						exact[key{s.src, s.tag}]++
					} else {
						wildcard[s.tag]++
					}
				}
				for k, n := range exact {
					for i := 0; i < n; i++ {
						if _, _, err := c.Recv(k.src, k.tag); err != nil {
							return err
						}
					}
				}
				for tag, n := range wildcard {
					for i := 0; i < n; i++ {
						if _, _, err := c.Recv(mpi.AnySource, tag); err != nil {
							return err
						}
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}

			var jobSent, jobRecv, jobSentBytes, jobRecvBytes uint64
			for r := 0; r < ranks; r++ {
				pv, err := w.Perf(r)
				if err != nil {
					t.Fatal(err)
				}
				s := pv.Snapshot()

				if s.Engine.UMQDepth != 0 {
					t.Errorf("rank %d: UMQ depth %d after shutdown-quiesce, want 0", r, s.Engine.UMQDepth)
				}
				if s.Engine.PRQDepth != 0 {
					t.Errorf("rank %d: PRQ depth %d, want 0", r, s.Engine.PRQDepth)
				}
				matches := s.Engine.MatchesUnexpected + s.Engine.MatchesPosted
				if matches != s.TotalRecvMsgs {
					t.Errorf("rank %d: %d matches != %d arrivals (UMQ not drained?)",
						r, matches, s.TotalRecvMsgs)
				}
				// Arrivals from each peer must cover the schedule (the
				// barrier adds collective traffic on top).
				for src := 0; src < ranks; src++ {
					if s.Engine.RecvMsgs[src] < sentTo[src][r] {
						t.Errorf("rank %d: %d arrivals from %d, schedule predicts >= %d",
							r, s.Engine.RecvMsgs[src], src, sentTo[src][r])
					}
				}
				if s.Engine.UMQHighWater == 0 && s.Engine.MatchesUnexpected > 0 {
					t.Errorf("rank %d: unexpected matches with zero UMQ high water", r)
				}
				if !s.Trace.Enabled || s.Trace.Recorded == 0 {
					t.Errorf("rank %d: tracer recorded nothing: %+v", r, s.Trace)
				}
				jobSent += s.TotalSentMsgs
				jobRecv += s.TotalRecvMsgs
				jobSentBytes += s.TotalSentBytes
				jobRecvBytes += s.TotalRecvBytes
			}
			if jobSent != jobRecv {
				t.Errorf("job-wide sent %d != received %d", jobSent, jobRecv)
			}
			if jobSentBytes != jobRecvBytes {
				t.Errorf("job-wide sent bytes %d != received bytes %d", jobSentBytes, jobRecvBytes)
			}
			if jobSent == 0 {
				t.Error("no traffic counted")
			}
		})
	}
}

// Collective latency accounting: composite collectives must count once, at
// the outermost op, on every rank.
func TestPerfCollectiveAttribution(t *testing.T) {
	const ranks = 4
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		if _, err := c.AllreduceInts([]int64{int64(c.Rank())}, mpi.OpSum); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		pv, _ := w.Perf(r)
		s := pv.Snapshot()
		if c := s.Collectives["allreduce"]; c.Count != 1 {
			t.Errorf("rank %d: allreduce count %d, want 1", r, c.Count)
		}
		if _, ok := s.Collectives["bcast"]; ok {
			t.Errorf("rank %d: the allreduce's broadcast counted separately", r)
		}
		if c := s.Collectives["barrier"]; c.Count != 2 {
			t.Errorf("rank %d: barrier count %d, want 2", r, c.Count)
		}
		if s.CollNanos() <= 0 {
			t.Errorf("rank %d: no collective latency accumulated", r)
		}
	}
}
