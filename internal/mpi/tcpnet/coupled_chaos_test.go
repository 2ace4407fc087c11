package tcpnet

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// holdDelays makes every "delay" fault hold its sender until release is
// called, in place of a sleep of its dur: a test acts while the sender is
// held, however slowly the machine runs it. release is idempotent, and
// cleanup calls it.
func holdDelays(t *testing.T) (release func()) {
	held := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(held) }) }
	old := faultSleep
	faultSleep = func(time.Duration) { <-held }
	t.Cleanup(func() { release(); faultSleep = old })
	return release
}

// runCoupledChaos runs the canonical coupled job on the couple_bulk grid
// (384x192: every band range two processors share is rendezvous-sized and
// moves as one segment) under the MPH_FAULT spec, and returns each rank's
// error from RunCoupled by world rank; victim, the rank that fails, has none
// if it died. Ranks do not escalate a failure on their own, so target fails
// only where it waits on the victim; once it has, it aborts the job, as its
// process exiting would through the launcher, and that releases every other
// survivor. A "delay" fault holds its sender until release is called (or act
// returns). act, when non-nil, runs beside the job with the ranks'
// transports and environments.
func runCoupledChaos(t *testing.T, spec string, victim, target int, act func(trs []*Transport, envs []*mpi.Env, release func())) []error {
	t.Helper()
	t.Setenv(EnvDialTimeout, "1s")
	t.Setenv(EnvDialBackoff, "20ms")
	t.Setenv(EnvFault, spec)
	// The die action exits the process after severing; here a rank is a
	// goroutine, so death is the goroutine's exit.
	oldExit := osExit
	osExit = func(int) { runtime.Goexit() }
	t.Cleanup(func() { osExit = oldExit })
	release := holdDelays(t)

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
		act(trs, envs, release)
	}
	release()

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

// iceSegments returns the number of segments the ice rank's field goes up
// in, and how many of them go to coupler rank 0, which sends as many back.
func iceSegments(t *testing.T) (total, toCoupler0 uint64) {
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

// TestChaosModelWaitsOnSecondSegment: the ice rank folds its increment in
// two segments, the first from coupler rank 0 and the second from coupler
// rank 1, and posts the second receive only once the first is folded in.
// Coupler rank 1 fails just before it would send its segment — it dies, or
// it aborts while the ice rank waits — and the ice rank's wait on it must end
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
		// ice rank has coupler rank 0's segment and has sent both of its
		// field's: coupler rank 0's can land while the ice rank's send to
		// coupler rank 1 still waits for its CTS.
		up, fromCoupler0 := iceSegments(t)
		errs := runCoupledChaos(t, fmt.Sprintf("delay,rank=%d,peer=%d,frame=rts", chaosCoupler1, chaosIce),
			chaosCoupler1, chaosIce, func(_ []*Transport, envs []*mpi.Env, _ func()) {
				nc := &envs[chaosIce].Perf().Net
				waitFor(t, "coupler rank 0's segment, the ice field sent", func() bool {
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
// after it has folded land's field and sent land's increment, so an ocean
// rank with a rendezvous-sized field sits in its send, RTS out, waiting for
// the CTS. Coupler rank 0, the one ocean rank 0 sends to, fails before it
// posts — it dies, or it aborts — and the ocean rank's send must end in
// ErrPeerLost or ErrAborted within the bound, never hang.
func TestChaosOceanBlockedInUpSend(t *testing.T) {
	const upSend = "send to dst proc 0"
	t.Run("die", func(t *testing.T) {
		// Coupler rank 0's CTS for land's field is held until ocean rank 0's
		// RTS is out; coupler rank 0 then reaches its first rendezvous send
		// to land rank 0, where it dies.
		spec := fmt.Sprintf("delay,rank=%d,peer=%d,frame=cts;die,rank=%d,peer=%d,frame=rts",
			chaosCoupler0, chaosLand0, chaosCoupler0, chaosLand0)
		var rts uint64
		errs := runCoupledChaos(t, spec, chaosCoupler0, chaosOcean0, func(_ []*Transport, envs []*mpi.Env, release func()) {
			waitFor(t, "ocean rank 0's RTS", func() bool { return envs[chaosOcean0].Perf().Net.RTSOut.Load() >= 1 })
			release()
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
		errs := runCoupledChaos(t, fmt.Sprintf("delay,rank=%d,peer=%d,frame=rts", chaosCoupler0, chaosLand0),
			chaosCoupler0, chaosOcean0, func(_ []*Transport, envs []*mpi.Env, _ func()) {
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

// TestChaosOceanDiesMidUpSend: coupler rank 0 folds ocean's field as it
// arrives, one segment from each ocean rank, in order. Ocean rank 0 fails in
// its second period's up-send — it dies as it would send the RTS, or it
// aborts while held there — and coupler rank 0's wait on that segment must
// end in ErrPeerLost or ErrAborted within the bound, never hang.
func TestChaosOceanDiesMidUpSend(t *testing.T) {
	const segment = "recv from src proc 0"
	t.Run("die", func(t *testing.T) {
		errs := runCoupledChaos(t, fmt.Sprintf("die,rank=%d,peer=%d,frame=rts,after=1", chaosOcean0, chaosCoupler0),
			chaosOcean0, chaosCoupler0, nil)
		err := errs[chaosCoupler0]
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != chaosOcean0 || !strings.Contains(err.Error(), segment) {
			t.Fatalf("coupler rank 0 ended with %v, want ErrPeerLost{Rank: %d} from its wait for ocean's segment (%q)", err, chaosOcean0, segment)
		}
	})
	t.Run("abort", func(t *testing.T) {
		// Coupler rank 0 sends five payloads a period (land's, ice's, two
		// atmosphere ranks' and ocean's increments) and posts ocean's receive
		// right after the first; the abort waits for the sixth, land's in the
		// second period, so it finds coupler rank 0 at ocean's segment and
		// not still in the first period.
		errs := runCoupledChaos(t, fmt.Sprintf("delay,rank=%d,peer=%d,frame=rts,after=1", chaosOcean0, chaosCoupler0),
			chaosOcean0, chaosCoupler0, func(_ []*Transport, envs []*mpi.Env, _ func()) {
				waitFor(t, "ocean rank 0's hold", func() bool { return envs[chaosOcean0].Perf().Net.FaultsInjected.Load() >= 1 })
				waitFor(t, "coupler rank 0's second land increment", func() bool { return envs[chaosCoupler0].Perf().Net.RDataOut.Load() >= 6 })
				mpi.WorldComm(envs[chaosOcean0]).Abort(5)
			})
		err := errs[chaosCoupler0]
		if !errors.Is(err, mpi.ErrAborted) || !strings.Contains(err.Error(), segment) {
			t.Fatalf("coupler rank 0 ended with %v, want ErrAborted from its wait for ocean's segment (%q)", err, segment)
		}
	})
}

// TestChaosLandDiesDuringIncrement: coupler rank 0 fills land's increment as
// it sends it, once the CTS is in. Land rank 0 dies as it would clear the
// second period's increment, and coupler rank 0's send of it must end in
// ErrPeerLost within the bound, never hang. The die action runs on the
// goroutine that writes CTSs; a dead process's coupled loop ends with it,
// and here a local abort ends it.
func TestChaosLandDiesDuringIncrement(t *testing.T) {
	const send = "send to dst proc 0"
	errs := runCoupledChaos(t, fmt.Sprintf("die,rank=%d,peer=%d,frame=cts,after=1", chaosLand0, chaosCoupler0),
		chaosLand0, chaosCoupler0, func(trs []*Transport, envs []*mpi.Env, _ func()) {
			waitFor(t, "land rank 0's death", func() bool { return envs[chaosLand0].Perf().Net.FaultsInjected.Load() >= 1 })
			trs[chaosLand0].abortDelivered(9, chaosLand0)
		})
	err := errs[chaosCoupler0]
	if rank, lost := mpi.IsPeerLost(err); !lost || rank != chaosLand0 || !strings.Contains(err.Error(), send) {
		t.Fatalf("coupler rank 0 ended with %v, want ErrPeerLost{Rank: %d} from its send of land's increment (%q)", err, chaosLand0, send)
	}
}

// foldFloats is the length of the folded payloads below: 512 KiB, far more
// than a socket buffer holds, in 32 pieces of the transport's scratch.
const foldFloats = 64 << 10

// TestChaosOceanSeveredMidFold: a coupler rank folds an ocean rank's
// rendezvous payload as it comes off the connection, and its fold blocks in
// the first piece until the ocean rank is severed — its connections and its
// session gone, as a crash leaves them — and the coupler rank has heard so.
// The fold receive must end in ErrPeerLost within the bound, never hang, and
// the fold must run on no piece after the sever.
func TestChaosOceanSeveredMidFold(t *testing.T) {
	const coupler, ocean = 0, 1
	trs, envs := startWorld(t, 2)
	defer envs[coupler].Close() // the severed rank's env is never closed

	severed, entered := make(chan struct{}), make(chan struct{})
	var folds atomic.Int64
	var req mpi.Request
	mpi.WorldComm(envs[coupler]).StartRecvFloatsFold(&req, ocean, 4, foldFloats, func(lo int, seg []float64) {
		if folds.Add(1) == 1 {
			close(entered)
			<-severed
		}
	})
	// The ocean rank's sending goroutine ends with the rank: a fill it is
	// asked for after the sever, which is how its send would try again,
	// never returns.
	go mpi.WorldComm(envs[ocean]).SendFloatsFill(coupler, 4, foldFloats, func(lo int, seg []float64) { //nolint:errcheck // the sender is severed
		select {
		case <-severed:
			runtime.Goexit()
		default:
		}
	})

	select {
	case <-entered:
	case <-time.After(chaosBound):
		t.Fatal("the fold never began")
	}
	trs[ocean].severAll()
	waitFor(t, "the coupler rank's verdict on the ocean rank", func() bool { return envs[coupler].Perf().Net.PeersLost.Load() > 0 })
	close(severed)

	done := make(chan error, 1)
	go func() { _, _, err := req.Wait(); done <- err }()
	select {
	case err := <-done:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != ocean {
			t.Fatalf("the fold receive ended with %v, want ErrPeerLost{Rank: %d}", err, ocean)
		}
	case <-time.After(chaosBound):
		t.Fatal("a fold receive hung on a sender severed mid-payload")
	}
	if n := folds.Load(); n != 1 {
		t.Errorf("the fold ran on %d pieces, want 1: the one it was in when the sender was severed", n)
	}
}

// TestChaosCouplerDiesMidFill: a coupler rank fills land's rendezvous
// payload as it sends it, and dies in its second piece — its connections and
// session severed, its sending goroutine gone — once the first piece is on
// the wire. Land's fold receive must end in ErrPeerLost within the bound,
// never hang, having folded no more than the pieces that went out.
func TestChaosCouplerDiesMidFill(t *testing.T) {
	const coupler, land = 0, 1
	trs, envs := startWorld(t, 2)
	defer envs[land].Close() // the dead rank's env is never closed

	var folded atomic.Int64
	var req mpi.Request
	mpi.WorldComm(envs[land]).StartRecvFloatsFold(&req, coupler, 6, foldFloats, func(lo int, seg []float64) {
		folded.Add(int64(len(seg)))
	})
	dying, dead := make(chan struct{}), make(chan struct{})
	var filled atomic.Int64
	go mpi.WorldComm(envs[coupler]).SendFloatsFill(land, 6, foldFloats, func(lo int, seg []float64) { //nolint:errcheck // the sender dies
		if lo > 0 {
			close(dying)
			<-dead
			runtime.Goexit()
		}
		filled.Add(int64(len(seg)))
	})

	select {
	case <-dying:
	case <-time.After(chaosBound):
		t.Fatal("the fill never reached its second piece")
	}
	trs[coupler].severAll()
	close(dead)

	done := make(chan error, 1)
	go func() { _, _, err := req.Wait(); done <- err }()
	select {
	case err := <-done:
		if rank, lost := mpi.IsPeerLost(err); !lost || rank != coupler {
			t.Fatalf("land's fold receive ended with %v, want ErrPeerLost{Rank: %d}", err, coupler)
		}
	case <-time.After(chaosBound):
		t.Fatal("a fold receive hung on a sender that died mid-fill")
	}
	if got, sent := folded.Load(), filled.Load(); got > sent {
		t.Errorf("land folded %d floats of the %d the dead coupler rank filled", got, sent)
	}
}
