package core_test

// One benchmark per handshake and messaging experiment of EXPERIMENTS.md
// (E1, E2, E3, E5). An op of E1-E3 is world creation + handshake + teardown
// on the in-process transport.

import (
	"fmt"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/registry"
)

// benchHandshakes runs b.N fresh worlds of the given size through setup.
func benchHandshakes(b *testing.B, ranks int, setup func(c *mpi.Comm) (*core.Setup, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		err := mpi.RunWorld(ranks, func(c *mpi.Comm) error { _, err := setup(c); return err })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandshakeModes (E1) hand-shakes each of the paper's execution
// modes (§2) on the registration files of §4.1-§4.4 the tests pin.
func BenchmarkHandshakeModes(b *testing.B) {
	for _, m := range []struct {
		name  string
		ranks int
		setup func(c *mpi.Comm) (*core.Setup, error)
	}{
		{"SCSE", 4, func(c *mpi.Comm) (*core.Setup, error) {
			return core.SingleComponentSetup(c, core.TextSource("BEGIN\nmodel\nEND\n"), "model")
		}},
		{"SCME", scmeWorldSize, func(c *mpi.Comm) (*core.Setup, error) {
			return core.SingleComponentSetup(c, core.TextSource(scmeReg), scmeLaunch(c.Rank()))
		}},
		{"MCSE", 9, func(c *mpi.Comm) (*core.Setup, error) {
			return core.ComponentsSetup(c, core.TextSource(mcseReg), []string{"atmosphere", "ocean", "coupler"})
		}},
		{"MCME-overlap", mcmeWorldSize, func(c *mpi.Comm) (*core.Setup, error) { return mcmeSetup(c) }},
		{"MIME", mimeWorldSize, mimeSetup},
	} {
		b.Run(fmt.Sprintf("%s/P=%d", m.name, m.ranks), func(b *testing.B) { benchHandshakes(b, m.ranks, m.setup) })
	}
}

func compName(i int) string { return fmt.Sprintf("comp%02d", i) }

// BenchmarkHandshakeScaling (E2) sweeps world size and component count for
// the SCME handshake (registry broadcast + layout exchange, §6): comps
// single-component executables over equal rank blocks.
func BenchmarkHandshakeScaling(b *testing.B) {
	for _, ranks := range []int{8, 16, 32, 64} {
		for _, comps := range []int{2, 4, 8} {
			bld := registry.NewBuilder()
			for i := 0; i < comps; i++ {
				bld.Single(compName(i))
			}
			reg, err := bld.Text()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("P=%d/C=%d", ranks, comps), func(b *testing.B) {
				benchHandshakes(b, ranks, func(c *mpi.Comm) (*core.Setup, error) {
					return core.SingleComponentSetup(c, core.TextSource(reg), compName(c.Rank()*comps/ranks))
				})
			})
		}
	}
}

// BenchmarkOverlapSplit (E3) is the ablation of paper §6(2) on one
// 16-rank multi-component executable: disjoint component layouts need a
// single Comm_split, fully overlapping ones a split per component.
func BenchmarkOverlapSplit(b *testing.B) {
	const ranks = 16
	for _, comps := range []int{2, 4, 8} {
		for _, layout := range []string{"disjoint", "overlap"} {
			lines := make([]registry.Line, comps)
			names := make([]string, comps)
			for i := range lines {
				names[i] = compName(i)
				lines[i] = registry.Line{Name: names[i], Low: i * ranks / comps, High: (i+1)*ranks/comps - 1}
				if layout == "overlap" {
					lines[i].Low, lines[i].High = 0, ranks-1
				}
			}
			reg, err := registry.NewBuilder().MultiComponent(lines...).Text()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("C=%d/%s", comps, layout), func(b *testing.B) {
				benchHandshakes(b, ranks, func(c *mpi.Comm) (*core.Setup, error) {
					return core.ComponentsSetup(c, core.TextSource(reg), names)
				})
			})
		}
	}
}

// BenchmarkIntercompPingPong (E5) measures round trips addressed by
// (component name, local id) (§5.2). One world per size with the b.N round
// trips inside it, so the handshake stays out of the per-op number.
func BenchmarkIntercompPingPong(b *testing.B) {
	for _, size := range []int{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(2 * size))
			err := mpi.RunWorld(2, func(c *mpi.Comm) error {
				me, peer := "ping", "pong"
				if c.Rank() == 1 {
					me, peer = peer, me
				}
				s, err := core.SingleComponentSetup(c, core.TextSource("BEGIN\nping\npong\nEND\n"), me)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if me == "ping" {
						if err := s.SendTo(peer, 0, 1, payload); err != nil {
							return err
						}
					}
					data, _, err := s.RecvFrom(peer, 0, 1)
					if err != nil {
						return err
					}
					if me == "pong" {
						if err := s.SendTo(peer, 0, 1, data); err != nil {
							return err
						}
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
