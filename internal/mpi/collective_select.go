package mpi

import "mph/internal/mpi/perf"

// The collective algorithm selector: choose, the only place an algorithm is
// picked and counted. It decides from what every rank of a communicator
// already observes — the operation, the payload size and the published host
// labels — so no setting can make two ranks disagree. The algorithms
// themselves live one family per file — flat trees in collective.go, rings
// in collective_ring.go, the two-level compositions in collective_hier.go.

// allreduceRingFrom is Allreduce's tree-to-ring crossover in bytes.
const allreduceRingFrom = 256 << 10

// hierAllreduceBelow is the payload size in bytes from which an Allreduce
// that spans hosts stays on the flat algorithms: the first C1b size at which
// flat beat two-level in every cell.
const hierAllreduceBelow = 64 << 10

// algPair is choose's verdict for the allreduce of a two-rank communicator
// (allreducePair). It is the flat tree of two ranks with both playing the
// root, so it is counted as a tree and has no performance variable of its
// own.
const algPair = perf.NumCollAlgs

// choose picks the algorithm for one invocation of op and counts the pick
// in the per-algorithm performance variable. decisionBytes must be a size
// every rank of the communicator agrees on (Allreduce requires equal payload
// lengths; only a Bcast's root knows its length, so Bcast passes 0), and
// commutative reports whether the operation may regroup its operands (a
// broadcast always may; a reduction only under the elementwise
// allreduceWith contract). Together
// with the published topology those are identical on every rank, so all
// members reach the same verdict without communication.
//
// The table, first matching row wins; each row names the measured cell that
// justifies it (EXPERIMENTS.md C1, C1b and S4: go test -run=NONE
// -bench='TreeVsRing|FlatVsHier' ./internal/mpi, and benchmark/):
//
//	pair  Allreduce on two ranks, wherever the tree would be picked (below
//	      the ring crossover): one exchange, both ranks fold, bit-identical
//	      to reduce-then-bcast. S6: BenchmarkAllreduce, 2 ranks over tcpnet,
//	      tree/pair 2.2 at 8 B, 2.1 at 16 B, 1.8 at 72 B; benchmark/
//	      couple_fine, whose coupler and ocean allreduces are all here,
//	      mpi.allreduce_ms 0.86 of the same build without the row, lower in
//	      9 of 10 traced pairs. Ahead of hier: two ranks have nothing to be
//	      hierarchical about.
//	hier  Bcast, and Allreduce below 64 KiB, when the comm spans more than
//	      one host and either operands may regroup or every host is one
//	      contiguous rank block. Inter-host messages drop to the closed form
//	      (Bcast H-1, Allreduce 2(H-1)) where the flat tree's grow with the
//	      ranks it happens to pair across hosts: benchmark/ bulk_2host's 5+5
//	      handshake — a sub-KiB Bcast and a 24-byte Allreduce — sends 3 of
//	      its 27 messages between the hosts instead of 9 and ties flat on
//	      setup_s (S4: 0.993, lower in 6 of 10 pairs). C1b prices the extra
//	      store-and-forward hop where every link costs the same, flat/hier
//	      at 2, 3, 4 hosts: Bcast 64 KiB 0.99/0.71/0.99 and 1 MiB
//	      0.91/0.68/1.00; Allreduce 1 KiB 0.92/0.82/0.87 and 32 KiB
//	      0.94/0.95/0.90 — an overhead bound, not the tie earlier, noisier
//	      sweeps read. From 64 KiB flat won every Allreduce cell of those
//	      (0.87-0.95; 0.64-0.75 at 1 MiB), so the row stops
//	      there; Bcast cannot stop anywhere, only its root knows the length.
//	      No harness here can price a slow link, so this row stands on
//	      message counts and bulk_2host, not on a time win.
//	ring  Allreduce, elementwise contract only, from 256 KiB (C1: tree/ring
//	      1.24 at 256 KiB, 1.37 at 1 MiB, but 0.69 at 64 KiB, where the
//	      tree therefore stays).
//	tree  everything else (C1: allreduce tree/ring 0.76 at 4 KiB, 0.69 at
//	      64 KiB; benchmark/ couple_fine, whose 8-24-byte allreduces are all
//	      here).
//
// Bcast has one flat algorithm, so below the hier row there is nothing to
// choose and nothing is counted: Tree and Ring count tree-vs-ring decisions,
// as perf.CollSnap has always reported them.
func (c *Comm) choose(op perf.CollOp, decisionBytes int, commutative bool) perf.CollAlg {
	ring, twoLevel := false, op == perf.CollBcast
	if op == perf.CollAllreduce {
		ring = commutative && c.env.ringFrom >= 0 && decisionBytes >= c.env.ringFrom
		twoLevel = decisionBytes < hierAllreduceBelow
	}
	var h *hierComm
	if twoLevel {
		h = c.hierView()
	}
	alg := perf.AlgTree
	switch {
	case len(c.group) < 2:
	case op == perf.CollAllreduce && len(c.group) == 2 && !ring:
		alg = algPair
	case h != nil && (commutative || h.contiguous):
		alg = perf.AlgHier
	case ring:
		alg = perf.AlgRing
	}
	counted := alg
	if alg == algPair {
		counted = perf.AlgTree
	}
	if counted != perf.AlgTree || op == perf.CollAllreduce {
		c.env.pv.CollAlgo(op, counted)
	}
	return alg
}

// hierView returns the communicator's host topology if the two-level
// algorithms may run on it — it spans more than one host and it is not
// itself one of their sub-communicators — else nil.
func (c *Comm) hierView() *hierComm {
	if c.noHier {
		return nil
	}
	return c.hierInfo()
}
