package mpi_test

// Microbenchmarks of the message-passing substrate itself — the floor under
// every MPH operation the other packages' benchmarks measure — and the
// experiments of EXPERIMENTS.md that price it: P1 (BenchmarkTracerOverhead),
// C1b (BenchmarkFlatVsHier).

import (
	"fmt"
	"strconv"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
	"mph/internal/mpi/perf"
)

// benchWorld runs fn on a persistent world, once per rank, with b.N
// available inside; it fails the benchmark on any rank error.
func benchWorld(b *testing.B, n int, fn func(c *mpi.Comm) error) {
	b.Helper()
	if err := mpi.RunWorld(n, fn); err != nil {
		b.Fatal(err)
	}
}

// workloadDepth is the unexpected-queue depth the observability budgets are
// stated at: the high-water the coupled workloads reach (EXPERIMENTS.md S7).
const workloadDepth = 8

// exactMatchLoop is the engine's common case and the loop every
// observability budget is stated on: b.N exact-envelope send/recv pairs on a
// self-delivering rank while pending unexpected messages of another tag sit
// in the queue ahead of each one.
func exactMatchLoop(b *testing.B, c *mpi.Comm, pending int) error {
	for i := 0; i < pending; i++ {
		if err := c.Send(0, 99, nil); err != nil {
			return err
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(0, 0, nil); err != nil {
			return err
		}
		if _, _, err := c.Recv(0, 0); err != nil {
			return err
		}
	}
	b.StopTimer()
	return nil
}

// BenchmarkEngineMatching isolates the receive-side matching engine: every
// sub-benchmark runs on a single self-delivering rank so transport cost is a
// constant and queue behaviour dominates.
//
//   - exact/pending=N: an exact-envelope recv while N unexpected messages of
//     a different tag sit in the queue ahead of it. The engine's queues are
//     plain FIFO lists, so the recv walks all N: 16 brackets the depths the
//     workloads reach (EXPERIMENTS.md S7), 64 and 1024 price the walk.
//   - wildcard/pending=N: an AnySource recv under the same load.
//   - fanout/waiters=N: ping-pong while N unmatched posted receives exist.
//     Broadcast wakeups pay O(N) scheduler work per message; targeted
//     wakeups pay nothing.
//   - posted: post-match-wait cost of a re-armed receive whose message
//     arrives after posting.
func BenchmarkEngineMatching(b *testing.B) {
	for _, pending := range []int{0, 1, 16, 64, 1024} {
		b.Run(fmt.Sprintf("exact/pending=%d", pending), func(b *testing.B) {
			benchWorld(b, 1, func(c *mpi.Comm) error { return exactMatchLoop(b, c, pending) })
		})
	}
	for _, pending := range []int{0, 64} {
		b.Run(fmt.Sprintf("wildcard/pending=%d", pending), func(b *testing.B) {
			benchWorld(b, 1, func(c *mpi.Comm) error {
				for i := 0; i < pending; i++ {
					if err := c.Send(0, 99, nil); err != nil {
						return err
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Send(0, 0, nil); err != nil {
						return err
					}
					if _, _, err := c.Recv(mpi.AnySource, 0); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	for _, waiters := range []int{16, 256} {
		b.Run(fmt.Sprintf("fanout/waiters=%d", waiters), func(b *testing.B) {
			benchWorld(b, 1, func(c *mpi.Comm) error {
				reqs := make([]mpi.Request, waiters)
				for i := range reqs {
					c.StartRecvInto(&reqs[i], 0, 1000+i, nil)
				}
				if err := exactMatchLoop(b, c, 0); err != nil {
					return err
				}
				// Drain the outstanding receives so the world shuts down
				// cleanly on any engine.
				for i := range reqs {
					if err := c.Send(0, 1000+i, nil); err != nil {
						return err
					}
					if _, _, err := reqs[i].Wait(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	b.Run("posted", func(b *testing.B) {
		benchWorld(b, 1, func(c *mpi.Comm) error {
			var r mpi.Request
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.StartRecvInto(&r, 0, 7, nil)
				if err := c.Send(0, 7, nil); err != nil {
					return err
				}
				if _, _, err := r.Wait(); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// BenchmarkTracerOverhead (EXPERIMENTS.md P1) prices the event tracer on
// exactMatchLoop at workloadDepth pending: off is the default nil-pointer fast
// path (budget: within 2 % of the same cell on a parent build), sampled is
// what a job gets by enabling tracing (1-in-DefaultTraceSample per-message
// events, budget 25 % over off), full records every event
// (MPH_TRACE_SAMPLE=1). exchange prices concurrent recorders on one ring:
// 4 in-process ranks, each sending to the next and receiving from the
// previous, recording every event. The same loop under live telemetry is
// internal/mpirun's BenchmarkTelemetryOverhead.
func BenchmarkTracerOverhead(b *testing.B) {
	for _, cfg := range []struct {
		name, sample string
		ranks        int
	}{
		{"off", "", 1},
		{"sampled", strconv.Itoa(perf.DefaultTraceSample), 1},
		{"full", "1", 1},
		{"exchange", "1", 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			w, err := mpi.NewWorld(cfg.ranks)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if cfg.sample != "" {
				b.Setenv(perf.EnvTraceSample, cfg.sample)
				w.EnableTracing(1 << 16)
			}
			err = w.Run(func(c *mpi.Comm) error {
				if cfg.ranks == 1 {
					return exactMatchLoop(b, c, workloadDepth)
				}
				next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
				for i := 0; i < b.N; i++ {
					if err := c.Send(next, 0, nil); err != nil {
						return err
					}
					if _, _, err := c.Recv(prev, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkSendRecvLatency(b *testing.B) {
	for _, size := range []int{0, 64, 1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			benchWorld(b, 2, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(1, 0, payload); err != nil {
							return err
						}
						if _, _, err := c.Recv(1, 1); err != nil {
							return err
						}
					} else {
						if _, _, err := c.Recv(0, 0); err != nil {
							return err
						}
						if err := c.Send(0, 1, nil); err != nil {
							return err
						}
					}
				}
				return nil
			})
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

// collOps builds, per payload size, the per-rank body of one invocation of
// each collective the selector routes (collective_select.go).
var collOps = map[string]func(size int) func(c *mpi.Comm) error{
	"allreduce": func(size int) func(c *mpi.Comm) error {
		xs := make([]float64, size/8)
		return func(c *mpi.Comm) error { _, err := c.AllreduceFloats(xs, mpi.OpSum); return err }
	},
	"bcast": func(size int) func(c *mpi.Comm) error {
		payload := make([]byte, size)
		return func(c *mpi.Comm) error {
			var in []byte
			if c.Rank() == 0 {
				in = payload
			}
			_, err := c.Bcast(0, in)
			return err
		}
	},
}

// benchCollective times b.N invocations of one collective at one payload
// size on every rank of a fresh world, its ranks published on hosts when
// given. pin, when given, runs on every rank before the first invocation, to
// hold the selector to one algorithm.
func benchCollective(b *testing.B, ranks int, hosts []string, pin func(c *mpi.Comm), op string, size int) {
	b.Helper()
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if hosts != nil {
		w.SetHosts(hosts)
	}
	b.SetBytes(int64(size))
	err = w.Run(func(c *mpi.Comm) error {
		run := collOps[op](size) // a body of each rank's own: an allreduce writes its operand
		if pin != nil {
			pin(c)
		}
		for i := 0; i < b.N; i++ {
			if err := run(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBcast(b *testing.B) {
	for _, n := range []int{4, 16} {
		for _, size := range []int{64, 64 << 10} {
			b.Run(fmt.Sprintf("n=%d/%dB", n, size), func(b *testing.B) { benchCollective(b, n, nil, nil, "bcast", size) })
		}
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, n := range []int{4, 16} {
		for _, elems := range []int{1, 1024} {
			b.Run(fmt.Sprintf("n=%d/elems=%d", n, elems), func(b *testing.B) { benchCollective(b, n, nil, nil, "allreduce", 8*elems) })
		}
	}
}

// BenchmarkFlatVsHier (EXPERIMENTS.md C1b) times the two operations the
// selector's hier row routes, at sizes it routes them (Bcast at any, Allreduce
// below hierAllreduceBelow), on 8 ranks block-placed over 2-4 published hosts,
// pinned flat (mpi.SetFlat) then left two-level. In-process "hosts" share one
// address space, so a cell prices the two-level shape's extra
// store-and-forward hop, not a network win.
func BenchmarkFlatVsHier(b *testing.B) {
	const ranks = 8
	for _, op := range []struct {
		name  string
		sizes []int
	}{
		{"bcast", []int{4 << 10, 64 << 10, 1 << 20}},
		{"allreduce", []int{1 << 10, 4 << 10, 32 << 10}},
	} {
		for _, hostCount := range []int{2, 3, 4} {
			hosts := make([]string, ranks)
			for r := range hosts {
				hosts[r] = fmt.Sprintf("node%d", r*hostCount/ranks)
			}
			for _, size := range op.sizes {
				for _, alg := range []struct {
					name string
					pin  func(c *mpi.Comm)
				}{{"flat", mpi.SetFlat}, {"hier", nil}} {
					b.Run(fmt.Sprintf("%s/hosts=%d/%dB/%s", op.name, hostCount, size, alg.name), func(b *testing.B) {
						benchCollective(b, ranks, hosts, alg.pin, op.name, size)
					})
				}
			}
		}
	}
}

func BenchmarkCommSplit(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchWorld(b, n, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := mpitest.Split(c, c.Rank()%2, 0); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}
