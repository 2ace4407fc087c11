package mpi

import "mph/internal/mpi/perf"

// ReduceTree is a test-only handle, for the external tests and benchmarks
// of package mpi_test, on the binomial-tree reduce behind the flat and
// two-level allreduce, at any root. It reduces a copy of data to root.
func ReduceTree(c *Comm, root int, data []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	return c.reduceTree(root, append([]byte(nil), data...), nil, fn)
}

// SetRingThreshold pins the ring crossover of c's rank to n bytes: 0 sends
// every ring-capable allreduce down the ring, a negative n down the tree.
// Every rank calls it before its first collective.
func SetRingThreshold(c *Comm, n int) { c.env.ringFrom = n }

// SetFlat keeps c off the two-level algorithms whatever hosts it spans.
// Every rank calls it before its first collective on c.
func SetFlat(c *Comm) { c.noHier = true }

// EnableTracing installs an event tracer on every rank of the world with
// the given ring capacity each. It must be called before traffic starts.
func (w *World) EnableTracing(capacity int) {
	for _, env := range w.envs {
		env.EnableTracing(capacity)
	}
}

// Perf returns rank's performance-variable handle.
func (w *World) Perf(rank int) (*perf.Rank, error) {
	if rank < 0 || rank >= w.size {
		return nil, ErrRank
	}
	return w.envs[rank].pv, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// pendingUnexpected reports the UMQ depth.
func (e *engine) pendingUnexpected() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ucount
}

// pendingPosted reports the PRQ depth.
func (e *engine) pendingPosted() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pcount
}
