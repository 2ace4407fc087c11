package tcpnet

import (
	"fmt"
	"testing"

	"mph/internal/mpi"
)

// foldCheck is a fold that records where each float went and how often.
type foldCheck struct {
	want   []float64
	times  []int
	pieces int
	bad    error
}

func newFoldCheck(want []float64) *foldCheck {
	return &foldCheck{want: want, times: make([]int, len(want))}
}

func (f *foldCheck) fold(lo int, seg []float64) {
	f.pieces++
	for i, v := range seg {
		if f.times[lo+i]++; v != f.want[lo+i] && f.bad == nil {
			f.bad = fmt.Errorf("float %d folded as %v, want %v", lo+i, v, f.want[lo+i])
		}
	}
}

// err reports a float folded other than once with its value.
func (f *foldCheck) err() error {
	if f.bad != nil {
		return f.bad
	}
	for i, k := range f.times {
		if k != 1 {
			return fmt.Errorf("float %d folded %d times", i, k)
		}
	}
	return nil
}

// TestFoldFillCarriers moves float payloads with the fold receive and the
// fill send, against each other and against the plain calls, over the
// intra-host channel and over TCP, at an eager size and a rendezvous one
// that is no whole number of scratch pieces: every float must arrive once,
// and a rendezvous payload must be folded in pieces, on the carrier its
// placement picks.
func TestFoldFillCarriers(t *testing.T) {
	for _, carrier := range []string{"shm", "tcp"} {
		for _, n := range []int{1000, 5*mpi.PieceBytes/8 + 7} {
			t.Run(fmt.Sprintf("%s/%d", carrier, n), func(t *testing.T) {
				_, envs := startWorld(t, 2)
				if carrier == "tcp" {
					splitHosts(envs)
				}
				defer envs[0].Close()
				defer envs[1].Close()
				c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
				want := make([]float64, n)
				for i := range want {
					want[i] = float64(i) + 0.25
				}
				fill := func(lo int, seg []float64) { copy(seg, want[lo:]) }
				sent := make(chan error, 1)
				go func() {
					err := c0.SendFloatsFill(1, 1, n, fill)
					if err == nil {
						err = c0.SendFloats(1, 2, want)
					}
					if err == nil {
						err = c0.SendFloatsFill(1, 3, n, fill)
					}
					sent <- err
				}()
				rendezvous := 8*n >= DefaultEagerThreshold
				for tag := 1; tag <= 2; tag++ {
					f := newFoldCheck(want)
					var req mpi.Request
					c1.StartRecvFloatsFold(&req, 0, tag, n, f.fold)
					if _, _, err := req.Wait(); err != nil {
						t.Fatalf("tag %d: %v", tag, err)
					}
					if err := f.err(); err != nil {
						t.Fatalf("tag %d: %v", tag, err)
					}
					if rendezvous && f.pieces < 2 || !rendezvous && f.pieces != 1 {
						t.Errorf("tag %d: %d floats folded in %d pieces", tag, n, f.pieces)
					}
				}
				got := make([]float64, n)
				if _, err := c1.RecvFloatsInto(0, 3, got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("filled float %d arrived as %v, want %v", i, got[i], want[i])
					}
				}
				if err := <-sent; err != nil {
					t.Fatal(err)
				}
				nc := &envs[0].Perf().Net
				wantRData, wantShm := uint64(0), uint64(0)
				if rendezvous {
					wantRData = 3
					if carrier == "shm" {
						wantShm = 3
					}
				}
				if got, shm := nc.RDataOut.Load(), nc.ShmRDataOut.Load(); got != wantRData || shm != wantShm {
					t.Errorf("%d payload frames, %d on the intra-host channel; want %d and %d", got, shm, wantRData, wantShm)
				}
			})
		}
	}
}

// TestFoldResumesOnTCPAfterShmSever: the intra-host channel is severed while
// the fill writes its second piece; the send falls back to TCP and fills the
// payload again, and the receiver folds only what the cut copy did not, so
// every float is folded once.
func TestFoldResumesOnTCPAfterShmSever(t *testing.T) {
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	n := 8 * mpi.PieceBytes / 8
	want := make([]float64, n)
	for i := range want {
		want[i] = -float64(i)
	}
	// A first transfer opens the channel.
	exchange(t, c0, c1, 1, make([]byte, DefaultEagerThreshold))

	severed := false
	fill := func(lo int, seg []float64) {
		if lo > 0 && !severed {
			severed = true
			trs[0].peers[1].sever(true)
		}
		copy(seg, want[lo:])
	}
	f := newFoldCheck(want)
	var req mpi.Request
	c1.StartRecvFloatsFold(&req, 0, 2, n, f.fold)
	if err := c0.SendFloatsFill(1, 2, n, fill); err != nil {
		t.Fatal(err)
	}
	if _, _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := f.err(); err != nil {
		t.Fatal(err)
	}
	if !severed || envs[0].Perf().Net.ShmFallbacks.Load() == 0 {
		t.Fatalf("the channel was not severed mid-fill (severed %v, %d fallbacks)", severed, envs[0].Perf().Net.ShmFallbacks.Load())
	}
}

// BenchmarkFold (EXPERIMENTS.md S22) times one-directional float transfers
// of couple_bulk's sizes — 96 KiB and 288 KiB, the smallest and the largest
// band range two of its processors share — on both carriers, each side
// making one pass over the floats (a running sum, the work of the coupler's
// means): into has the sender pass over its slice and send it, and the
// receiver receive into place and then pass over it; fold has the receiver
// pass over each piece as it comes off the connection instead; fill has the
// sender pass over each piece as it goes out as well. The scratch's size,
// mpi.PieceBytes, comes from this benchmark run at several sizes.
func BenchmarkFold(b *testing.B) {
	for _, size := range []int{96 << 10, 288 << 10} {
		for _, carrier := range []string{"shm", "tcp"} {
			for _, cell := range []string{"into", "fold", "fill"} {
				b.Run(fmt.Sprintf("%dB/%s/%s", size, carrier, cell), func(b *testing.B) {
					n := size / 8
					src, dst := make([]float64, n), make([]float64, n)
					var sums [2]float64
					pass := [2]func(int, []float64){}
					for r := range pass {
						pass[r] = func(_ int, seg []float64) {
							for _, v := range seg {
								sums[r] += v
							}
						}
					}
					var req mpi.Request
					setup := func(_ []*Transport, envs []*mpi.Env) {
						if carrier == "tcp" {
							splitHosts(envs)
						}
					}
					benchPair(b, size, setup, func(c *mpi.Comm, _ []byte) error {
						if c.Rank() == 0 {
							if cell == "fill" {
								return c.SendFloatsFill(1, 4, n, pass[0])
							}
							pass[0](0, src)
							return c.SendFloats(1, 4, src)
						}
						if cell == "into" {
							_, err := c.RecvFloatsInto(0, 4, dst)
							pass[1](0, dst)
							return err
						}
						c.StartRecvFloatsFold(&req, 0, 4, n, pass[1])
						_, _, err := req.Wait()
						return err
					})
				})
			}
		}
	}
}
