package tcpnet

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/xfer"
)

// The canonical coupled job's world ranks: atmosphere 0-2, ocean 3-4, land
// 5-6, ice 7, coupler 8-9.
const (
	chaosOcean0   = 3
	chaosLand0    = 5
	chaosIce      = 7
	chaosCoupler0 = 8
	chaosCoupler1 = 9
)

// chaosBound is how long a rank may take to give up on a rank that died or
// aborted.
const chaosBound = 10 * time.Second

// runCoupledChaos runs the canonical coupled job on the couple_bulk grid
// (384x192: every exchange piece is rendezvous-sized, in 72 KiB chunks)
// under the MPH_FAULT spec, and returns each rank's error from RunCoupled by
// world rank; victim, the rank that fails, has none if it died. Ranks do not
// escalate a failure on their own, so target fails only where it waits on
// the victim; once it has, it aborts the job, as its process exiting would
// through the launcher, and that releases every other survivor. act, when
// non-nil, runs beside the job with the ranks' transports and environments.
func runCoupledChaos(t *testing.T, spec string, victim, target int, act func(trs []*Transport, envs []*mpi.Env)) []error {
	t.Helper()
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	t.Setenv(EnvFault, spec)
	// The die action exits the process after severing; here a rank is a
	// goroutine, so death is the goroutine's exit.
	oldExit := osExit
	osExit = func(int) { runtime.Goexit() }
	t.Cleanup(func() { osExit = oldExit })

	const n = 10
	trs, envs := startWorld(t, n)
	errs := make([]error, n)
	defer func() {
		for r, env := range envs {
			if r != victim || errs[r] != nil { // a rank that died has nothing to close
				env.Close()
			}
		}
	}()
	if trs[victim].faults == nil {
		t.Fatal("MPH_FAULT was not picked up")
	}

	g, err := grid.New(384, 192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := coupler.Config{Grid: g, Periods: 2, SubSteps: 1, Dt: 0.5, Names: coupler.DefaultNames()}
	const reg = "BEGIN\natmosphere\nocean\nland\nice\ncoupler\nEND\n"
	names := [n]string{"atmosphere", "atmosphere", "atmosphere", "ocean", "ocean", "land", "land", "ice", "coupler", "coupler"}

	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			world := mpi.WorldComm(envs[rank])
			s, err := core.SingleComponentSetup(world, core.TextSource(reg), names[rank])
			if err == nil {
				_, err = coupler.RunCoupled(s, cfg)
			}
			if err == nil {
				err = errors.New("the coupled run succeeded")
			}
			errs[rank] = err
			if rank == target {
				world.Abort(3)
			}
		}(r)
	}
	if act != nil {
		act(trs, envs)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(chaosBound):
		t.Fatalf("a rank still waits %v into the job (the victim was rank %d): a hang; errs %v", chaosBound, victim, errs)
	}
	for r, err := range errs {
		if r == victim && err == nil {
			continue // died
		}
		if rank, lost := mpi.IsPeerLost(err); lost && rank != victim {
			t.Errorf("rank %d lost rank %d, want %d", r, rank, victim)
		} else if !lost && !errors.Is(err, mpi.ErrAborted) {
			t.Errorf("rank %d: %v is neither ErrPeerLost nor ErrAborted", r, err)
		}
	}
	return errs
}

// waitFor polls cond until it holds, failing t after chaosBound.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(chaosBound); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
	}
}

// iceChunks returns the number of chunks the ice rank's field goes up in,
// and how many of them go to coupler rank 0, which sends as many back.
func iceChunks(t *testing.T) (total, toCoupler0 uint64) {
	g, err := grid.New(384, 192)
	if err != nil {
		t.Fatal(err)
	}
	ice, _ := grid.NewDecomp(g, 1)
	cpl, _ := grid.NewDecomp(g, 2)
	r, err := xfer.NewRouter(ice, cpl)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range r.SendPlan(0) {
		total++
		if seg.Peer == 0 {
			toCoupler0++
		}
	}
	return total, toCoupler0
}

// TestChaosModelWaitsOnSecondSegment: the ice rank takes its increment in
// chunks, the first half from coupler rank 0 and the second from coupler
// rank 1, and posts each receive only once the chunk before it is in.
// Coupler rank 1 fails just before it would send its first — it dies, or it
// aborts while the ice rank waits — and the ice rank's wait on it must end
// in ErrPeerLost or ErrAborted within the bound, never hang.
func TestChaosModelWaitsOnSecondSegment(t *testing.T) {
	second := fmt.Sprintf("recv from src proc %d", chaosCoupler1-chaosCoupler0)
	t.Run("die", func(t *testing.T) {
		// Coupler rank 1's first rendezvous send to the ice rank is its
		// increment: it dies instead.
		errs := runCoupledChaos(t, fmt.Sprintf("die,rank=%d,peer=%d,frame=rts", chaosCoupler1, chaosIce),
			chaosCoupler1, chaosIce, nil)
		err := errs[chaosIce]
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != chaosCoupler1 || !strings.Contains(err.Error(), second) {
			t.Fatalf("the ice rank ended with %v, want ErrPeerLost{Rank: %d} from its wait for the second segment (%q)", err, chaosCoupler1, second)
		}
	})
	t.Run("abort", func(t *testing.T) {
		// Coupler rank 1 is held just before that send, and aborts once the
		// ice rank has every chunk from coupler rank 0 and has sent every
		// chunk of its field: the chunks can land while the ice rank's last
		// send to coupler rank 1 still waits for its CTS.
		up, fromCoupler0 := iceChunks(t)
		errs := runCoupledChaos(t, fmt.Sprintf("delay,rank=%d,peer=%d,frame=rts,dur=2s", chaosCoupler1, chaosIce),
			chaosCoupler1, chaosIce, func(_ []*Transport, envs []*mpi.Env) {
				nc := &envs[chaosIce].Perf().Net
				waitFor(t, "coupler rank 0's chunks, the ice field sent", func() bool {
					return nc.RDataIn.Load() >= fromCoupler0 && nc.RDataOut.Load() >= up
				})
				mpi.WorldComm(envs[chaosCoupler1]).Abort(5)
			})
		err := errs[chaosIce]
		if !errors.Is(err, mpi.ErrAborted) || !strings.Contains(err.Error(), second) {
			t.Fatalf("the ice rank ended with %v, want ErrAborted from its wait for the second segment (%q)", err, second)
		}
	})
}

// TestChaosOceanBlockedInUpSend: the coupler posts ocean's up-receive only
// after it has streamed land's field and sent land's increment, so an ocean
// rank with a rendezvous-sized field sits in its send, RTS out, waiting for
// the CTS. Coupler rank 0, the one ocean rank 0 sends to, fails before it
// posts — it dies, or it aborts — and the ocean rank's send must end in
// ErrPeerLost or ErrAborted within the bound, never hang.
func TestChaosOceanBlockedInUpSend(t *testing.T) {
	const upSend = "send to dst proc 0"
	t.Run("die", func(t *testing.T) {
		// Coupler rank 0's CTS for land's first chunk is held for a second,
		// so the ocean rank's RTS is out long before coupler rank 0 reaches
		// its first rendezvous send to land rank 0, where it dies.
		spec := fmt.Sprintf("delay,rank=%d,peer=%d,frame=cts,dur=1s;die,rank=%d,peer=%d,frame=rts",
			chaosCoupler0, chaosLand0, chaosCoupler0, chaosLand0)
		var rts uint64
		errs := runCoupledChaos(t, spec, chaosCoupler0, chaosOcean0, func(_ []*Transport, envs []*mpi.Env) {
			waitFor(t, "coupler rank 0's death", func() bool { return envs[chaosCoupler0].Perf().Net.FaultsInjected.Load() >= 2 })
			rts = envs[chaosOcean0].Perf().Net.RTSOut.Load()
		})
		err := errs[chaosOcean0]
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != chaosCoupler0 || !strings.Contains(err.Error(), upSend) {
			t.Fatalf("ocean rank 0 ended with %v, want ErrPeerLost{Rank: %d} from its up-send (%q)", err, chaosCoupler0, upSend)
		}
		if rts == 0 {
			t.Fatal("ocean rank 0 had sent no RTS when coupler rank 0 died: its send was not blocked in the rendezvous")
		}
	})
	t.Run("abort", func(t *testing.T) {
		// Coupler rank 0 is held just before its first rendezvous send to
		// land rank 0, and aborts once ocean rank 0's RTS is out.
		errs := runCoupledChaos(t, fmt.Sprintf("delay,rank=%d,peer=%d,frame=rts,dur=2s", chaosCoupler0, chaosLand0),
			chaosCoupler0, chaosOcean0, func(_ []*Transport, envs []*mpi.Env) {
				waitFor(t, "coupler rank 0's hold", func() bool { return envs[chaosCoupler0].Perf().Net.FaultsInjected.Load() >= 1 })
				waitFor(t, "ocean rank 0's RTS", func() bool { return envs[chaosOcean0].Perf().Net.RTSOut.Load() >= 1 })
				mpi.WorldComm(envs[chaosCoupler0]).Abort(5)
			})
		err := errs[chaosOcean0]
		if !errors.Is(err, mpi.ErrAborted) || !strings.Contains(err.Error(), upSend) {
			t.Fatalf("ocean rank 0 ended with %v, want ErrAborted from its up-send (%q)", err, upSend)
		}
	})
}

// TestChaosOceanDiesMidUpSend: coupler rank 0 streams ocean's field one chunk
// at a time, posting each receive once the chunk before it is merged. Ocean
// rank 0 fails after its second chunk to it — it dies, or it aborts while
// held before its third — and coupler rank 0's wait on the third chunk must
// end in ErrPeerLost or ErrAborted within the bound, never hang.
func TestChaosOceanDiesMidUpSend(t *testing.T) {
	const third = "recv from src proc 0"
	t.Run("die", func(t *testing.T) {
		errs := runCoupledChaos(t, fmt.Sprintf("die,rank=%d,peer=%d,frame=rts,after=2", chaosOcean0, chaosCoupler0),
			chaosOcean0, chaosCoupler0, nil)
		err := errs[chaosCoupler0]
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != chaosOcean0 || !strings.Contains(err.Error(), third) {
			t.Fatalf("coupler rank 0 ended with %v, want ErrPeerLost{Rank: %d} from its wait for ocean's third chunk (%q)", err, chaosOcean0, third)
		}
	})
	t.Run("abort", func(t *testing.T) {
		errs := runCoupledChaos(t, fmt.Sprintf("delay,rank=%d,peer=%d,frame=rts,after=2,dur=2s", chaosOcean0, chaosCoupler0),
			chaosOcean0, chaosCoupler0, func(_ []*Transport, envs []*mpi.Env) {
				waitFor(t, "ocean rank 0's hold", func() bool { return envs[chaosOcean0].Perf().Net.FaultsInjected.Load() >= 1 })
				mpi.WorldComm(envs[chaosOcean0]).Abort(5)
			})
		err := errs[chaosCoupler0]
		if !errors.Is(err, mpi.ErrAborted) || !strings.Contains(err.Error(), third) {
			t.Fatalf("coupler rank 0 ended with %v, want ErrAborted from its wait for ocean's third chunk (%q)", err, third)
		}
	})
}

// TestChaosLandDiesDuringIncrement: coupler rank 0 sends land's increment a
// chunk at a time, and land rank 0 posts each receive once the chunk before
// it is in. Land rank 0 dies as it would clear the second chunk's CTS, and
// coupler rank 0's send of it must end in ErrPeerLost within the bound,
// never hang. The die action runs on the goroutine that writes CTSs; a dead
// process's coupled loop ends with it, and here a local abort ends it.
func TestChaosLandDiesDuringIncrement(t *testing.T) {
	const send = "send to dst proc 0"
	errs := runCoupledChaos(t, fmt.Sprintf("die,rank=%d,peer=%d,frame=cts,after=1", chaosLand0, chaosCoupler0),
		chaosLand0, chaosCoupler0, func(trs []*Transport, envs []*mpi.Env) {
			waitFor(t, "land rank 0's death", func() bool { return envs[chaosLand0].Perf().Net.FaultsInjected.Load() >= 1 })
			trs[chaosLand0].abortDelivered(9, chaosLand0)
		})
	err := errs[chaosCoupler0]
	if rank, lost := mpi.IsPeerLost(err); !lost || rank != chaosLand0 || !strings.Contains(err.Error(), send) {
		t.Fatalf("coupler rank 0 ended with %v, want ErrPeerLost{Rank: %d} from its send of land's increment (%q)", err, chaosLand0, send)
	}
}
