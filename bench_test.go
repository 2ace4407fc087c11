package mph_test

// The benchmark harness: one benchmark per experiment of EXPERIMENTS.md
// (the paper has no numeric tables or figures, so the experiments reproduce
// its functional claims; see DESIGN.md §5). Run with:
//
//	go test -bench=. -benchmem
//
// cmd/mphbench prints the same scenarios as human-readable sweep tables.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mph/internal/bench"
	"mph/internal/bootstrap"
	"mph/internal/iolog"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
	"mph/internal/registry"
)

// BenchmarkE1HandshakeModes times one complete handshake in each of the
// paper's execution modes (§2): the unified interface must serve them all.
func BenchmarkE1HandshakeModes(b *testing.B) {
	modes := []struct {
		name string
		run  func() error
	}{
		{"SCSE", func() error { return bench.HandshakeSCME(8, 1) }},
		{"SCME", func() error { return bench.HandshakeSCME(8, 4) }},
		{"MCSE", func() error { return bench.HandshakeMultiComp(8, 4, false) }},
		{"MCME-overlap", func() error { return bench.HandshakeMultiComp(8, 4, true) }},
		{"MIME", func() error { _, err := bench.EnsembleRound(4, 1, 1); return err }},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := m.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2HandshakeScaling sweeps world size and component count for the
// SCME handshake (registry broadcast + executable split + layout exchange,
// §6).
func BenchmarkE2HandshakeScaling(b *testing.B) {
	for _, ranks := range []int{8, 16, 32, 64} {
		for _, comps := range []int{2, 4, 8} {
			if comps > ranks {
				continue
			}
			b.Run(fmt.Sprintf("P=%d/C=%d", ranks, comps), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := bench.HandshakeSCME(ranks, comps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3OverlapSplit is the ablation of paper §6(2): disjoint
// component layouts need a single Comm_split, overlapping layouts one split
// per component.
func BenchmarkE3OverlapSplit(b *testing.B) {
	for _, comps := range []int{2, 4, 8} {
		for _, overlap := range []bool{false, true} {
			label := "disjoint"
			if overlap {
				label = "overlap"
			}
			b.Run(fmt.Sprintf("C=%d/%s", comps, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := bench.HandshakeMultiComp(16, comps, overlap); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE4CommJoin measures MPH_comm_join plus an M-to-N field
// redistribution over the joined communicator (§5.1).
func BenchmarkE4CommJoin(b *testing.B) {
	cases := []struct{ m, n, nlat, nlon int }{
		{2, 2, 64, 32},
		{4, 2, 64, 32},
		{2, 4, 64, 32},
		{4, 4, 128, 64},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%dto%d/%dx%d", c.m, c.n, c.nlat, c.nlon), func(b *testing.B) {
			cells := c.nlat * c.nlon
			b.SetBytes(int64(cells * 8))
			for i := 0; i < b.N; i++ {
				if err := bench.JoinTransfer(c.m, c.n, c.nlat, c.nlon, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5IntercompPingPong measures name-addressed point-to-point
// round trips (§5.2) across payload sizes.
func BenchmarkE5IntercompPingPong(b *testing.B) {
	for _, size := range []int{64, 1 << 10, 16 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			b.SetBytes(int64(2 * size))
			// One world per benchmark run; rounds = b.N inside it, so the
			// handshake is amortized out of the per-op number.
			if err := bench.PingPong(size, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE6Ensemble measures the MIME aggregate-and-steer cycle (§2.5)
// over member counts.
func BenchmarkE6Ensemble(b *testing.B) {
	for _, members := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("K=%d", members), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.EnsembleRound(members, 2, 256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Arguments measures MPH_get_argument parsing (§4.4).
func BenchmarkE7Arguments(b *testing.B) {
	args := registry.NewArguments([]string{"inf3", "outf3", "alpha=3", "beta=4.5", "debug=on"})
	b.Run("int", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := args.Int("alpha"); !ok || err != nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := args.Float("beta"); !ok || err != nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("field", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := args.Field(1); !ok {
				b.Fatal("lookup failed")
			}
		}
	})
}

// BenchmarkE8CoupledClimate measures the full five-component coupled system
// (§7) across grid sizes.
func BenchmarkE8CoupledClimate(b *testing.B) {
	for _, g := range []struct{ nlat, nlon int }{{16, 8}, {32, 16}, {64, 32}} {
		b.Run(fmt.Sprintf("%dx%d", g.nlat, g.nlon), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bench.CoupledClimate(g.nlat, g.nlon, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Redirect measures the multi-channel output path (§5.4) under
// concurrent writers.
func BenchmarkE9Redirect(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			mux, err := iolog.NewMux(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer mux.Close()
			w, err := mux.ComponentWriter("bench")
			if err != nil {
				b.Fatal(err)
			}
			line := []byte("component step report: all fields nominal\n")
			b.SetBytes(int64(len(line)))
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / writers
			if per == 0 {
				per = 1
			}
			for k := 0; k < writers; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := w.Write(line); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkE10TCPTransport measures a world-spanning round trip on the
// multi-process TCP transport, for comparison against the in-process
// numbers of E5.
func BenchmarkE10TCPTransport(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			rv, err := bootstrap.NewRendezvous(2)
			if err != nil {
				b.Fatal(err)
			}
			go rv.Serve(30 * time.Second)

			payload := make([]byte, size)
			b.SetBytes(int64(2 * size))
			var wg sync.WaitGroup
			errs := make([]error, 2)
			b.ResetTimer()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					env, err := tcpnet.Init(rank, 2, rv.Advertised())
					if err != nil {
						errs[rank] = err
						return
					}
					defer env.Close()
					c := mpi.WorldComm(env)
					for i := 0; i < b.N; i++ {
						if rank == 0 {
							if err := c.Send(1, 1, payload); err != nil {
								errs[rank] = err
								return
							}
							if _, _, err := c.Recv(1, 2); err != nil {
								errs[rank] = err
								return
							}
						} else {
							data, _, err := c.Recv(0, 1)
							if err != nil {
								errs[rank] = err
								return
							}
							if err := c.Send(0, 2, data); err != nil {
								errs[rank] = err
								return
							}
						}
					}
					errs[rank] = c.Barrier()
				}(r)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
