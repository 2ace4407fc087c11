package mpi

import (
	"fmt"
	"os"
	"sync"
)

// World is the in-process job: n ranks, each intended to run on its own
// goroutine, sharing nothing but the message transport. It stands in for an
// MPMD launch on a distributed-memory machine.
type World struct {
	size int
	envs []*Env
}

// NewWorld creates an in-process world with n ranks.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", n)
	}
	tr := &inprocTransport{engines: make([]*engine, n), pools: make([]*PacketPool, n)}
	w := &World{size: n, envs: make([]*Env, n)}
	for i := 0; i < n; i++ {
		env := NewEnv(i, n, tr)
		tr.engines[i] = env.eng
		tr.pools[i] = NewPacketPool(inprocPooledPayload)
		w.envs[i] = env
	}
	// Sent totals are derived, not counted: an in-process eager send is
	// delivered into the destination engine before it returns, so "what
	// rank i sent to d" is exactly what d's engine received from i. The
	// collector reads sibling engines under their own locks at snapshot
	// time, keeping the send hot path untouched.
	for i, env := range w.envs {
		src := i
		env.pv.SetSentCollector(func() (msgs, bytes []uint64) {
			msgs = make([]uint64, n)
			bytes = make([]uint64, n)
			for d, eng := range tr.engines {
				msgs[d], bytes[d] = eng.arrivalsFrom(src)
			}
			return msgs, bytes
		})
	}
	// Every in-process rank shares one host; publish that so HostOf behaves
	// uniformly across transports.
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "localhost"
	}
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = host
	}
	w.SetHosts(hosts)
	return w, nil
}

// SetHosts overrides the host topology published to every rank: hosts[r] is
// the host label of world rank r. Tests use it to model multi-host layouts
// in-process; a wrongly-sized slice is ignored.
func (w *World) SetHosts(hosts []string) {
	for _, env := range w.envs {
		env.SetHosts(hosts)
	}
}

// Comm returns rank's world communicator. Each rank must use only its own.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, ErrRank
	}
	return worldComm(w.envs[rank]), nil
}

// Close shuts down every rank's engine: blocked receivers fail with
// ErrClosed, and so do outstanding posted receives (requests).
func (w *World) Close() {
	// Flush observability dumps for every rank before any engine closes:
	// sent totals are derived from sibling engines, which must still hold
	// their counters.
	for _, env := range w.envs {
		env.flushObservability()
	}
	for _, env := range w.envs {
		env.eng.close()
	}
}

// Run executes fn once per rank, each call on its own goroutine with that
// rank's world communicator, and waits for all of them. It returns the
// first non-nil error (by rank order). A panic in any rank is re-panicked
// in the caller after the other ranks are released.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	panics := make([]any, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					w.Close() // release ranks blocked on the panicked one
				}
			}()
			c, err := w.Comm(rank)
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = fn(c)
		}(r)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpi: rank panicked during World.Run: %v", p))
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunWorld is a convenience wrapper: create a world of n ranks, run fn on
// each, and shut the world down.
func RunWorld(n int, fn func(c *Comm) error) error {
	w, err := NewWorld(n)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Run(fn)
}
