package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mph/internal/mpi/perf"
)

// hierLayouts are the degenerate and representative host topologies the
// hierarchical collectives must survive: everything on one host (router
// stays dormant), one rank per host (singleton intra comms, leaders == the
// whole comm), uneven blocks, and a cyclic placement whose hosts are not
// contiguous in rank order (order-sensitive reductions must refuse it).
var hierLayouts = []struct {
	name  string
	hosts []string
}{
	{"one-host", []string{"hA", "hA", "hA", "hA"}},
	{"one-rank-per-host", []string{"hA", "hB", "hC", "hD"}},
	{"uneven-3+1", []string{"hA", "hA", "hA", "hB"}},
	{"contig-2+2", []string{"hA", "hA", "hB", "hB"}},
	{"cyclic-2x2", []string{"hA", "hB", "hA", "hB"}},
	{"uneven-3+3+2", []string{"hA", "hA", "hA", "hB", "hB", "hB", "hC", "hC"}},
	{"uneven-3+2+1", []string{"hA", "hA", "hA", "hB", "hB", "hC"}},
}

// newHierWorld builds an in-process world with the given host topology
// published before any collective runs, so every comm's first collective
// sees it.
func newHierWorld(t *testing.T, hosts []string) *World {
	t.Helper()
	w, err := NewWorld(len(hosts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	w.SetHosts(hosts)
	return w
}

// hierPayload is a deterministic per-rank payload of the given size.
func hierPayload(rank, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(rank*131 + i)
	}
	return p
}

// hierOps are collectives as functions from a rank to the bytes it ends up
// with, so one table can compare the two-level algorithms against the flat
// ones and pin which operations have a two-level form at all. perHost is the
// closed form of the messages a two-level run sends between hosts, per host
// beyond the first. Reductions sum integers: exact, so byte equality is
// required.
var hierOps = func() []hierOp {
	concat := func(acc, in []byte) ([]byte, error) {
		return append(append([]byte(nil), acc...), in...), nil
	}
	sum := func(n int) func(c *Comm) ([]byte, error) {
		return func(c *Comm) ([]byte, error) {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(c.Rank()*1000 + i)
			}
			out, err := c.AllreduceInts(xs, OpSum)
			return encodeInts(out), err
		}
	}
	ops := []hierOp{
		{"allreduce/elementwise", "allreduce", true, true, 2, sum(100)},
		// Rank-order concatenation: associative, not commutative.
		{"allreduce/opaque", "allreduce", true, false, 2,
			func(c *Comm) ([]byte, error) { return c.Allreduce([]byte{byte('a' + c.Rank())}, concat) }},
		// From hierAllreduceBelow up the flat algorithms won every C1b cell.
		{"allreduce/large", "allreduce", false, true, 0, sum(hierAllreduceBelow / 8)},
		// The allgather the handshake runs (core's exchange): one rank-tagged
		// row per rank, concatenated by an opaque Allreduce, so it routes
		// two-level only where the hosts are contiguous rank blocks.
		{"allgather", "allreduce", true, false, 2,
			func(c *Comm) ([]byte, error) {
				return c.Allreduce(encodeInts([]int64{int64(c.Rank()), int64(c.Rank() * 37), 1}), concat)
			}},
		// The tree reduce the allreduce is built on stays flat at any root:
		// it has no selector row and no performance variable, so its "reduce"
		// lookup reads zero.
		{"reduce", "reduce", false, false, 0,
			func(c *Comm) ([]byte, error) { return c.reduceTree(1, []byte{byte('a' + c.Rank())}, nil, concat) }},
	}
	// Roots: a leader, a rank off its leader wherever host 0 has two members,
	// and the last rank (a single-member host's leader in two layouts).
	for _, root := range []int{0, 1, -1} {
		root := root
		at := func(c *Comm) int { return (root + c.Size()) % c.Size() }
		for _, size := range []int{0, 5000} {
			size := size
			ops = append(ops, hierOp{fmt.Sprintf("bcast/root=%d/size=%d", root, size), "bcast", true, true, 1,
				func(c *Comm) ([]byte, error) {
					var in []byte
					if c.Rank() == at(c) {
						in = hierPayload(c.Rank(), size)
					}
					return c.Bcast(at(c), in)
				}})
		}
	}
	return ops
}()

type hierOp struct {
	name, pvar  string
	twoLevel    bool // the selector has a two-level row for it
	commutative bool // may regroup operands: routes two-level on any placement
	perHost     int
	run         func(c *Comm) ([]byte, error)
}

// TestHierMatchesFlat is the property the two-level algorithms exist for,
// over op x topology: every rank ends up with exactly the bytes the flat
// algorithm gives it, and the messages that cross a host boundary — read
// from the per-peer sent counters — number the closed form (Bcast H-1,
// Allreduce 2(H-1)), not whatever the flat tree's pairing yields. A
// placement whose hosts are not contiguous rank blocks must send the
// order-sensitive allreduce down the flat path instead, and the operations
// and sizes the selector has no two-level row for must stay flat everywhere.
func TestHierMatchesFlat(t *testing.T) {
	// run executes op on a fresh world and returns every rank's output, the
	// messages sent between hosts, and rank 0's two-level selection count.
	run := func(t *testing.T, hosts []string, op hierOp, flat bool) (outs [][]byte, interHost int, picked uint64) {
		w := newHierWorld(t, hosts)
		outs = make([][]byte, len(hosts))
		err := w.Run(func(c *Comm) error {
			c.noHier = flat
			out, err := op.run(c)
			outs[c.Rank()] = out
			return err
		})
		if err != nil {
			t.Fatalf("flat=%v: %v", flat, err)
		}
		for r := range hosts {
			pv, err := w.Perf(r)
			if err != nil {
				t.Fatal(err)
			}
			snap := pv.Snapshot()
			for dst, n := range snap.SentMsgs {
				if hosts[dst] != hosts[r] {
					interHost += int(n)
				}
			}
			if r == 0 {
				picked = snap.Collectives[op.pvar].Hier
			}
		}
		return outs, interHost, picked
	}
	for _, layout := range hierLayouts {
		distinct := map[string]bool{}
		contiguous := true
		for r, h := range layout.hosts {
			if distinct[h] && layout.hosts[r-1] != h {
				contiguous = false
			}
			distinct[h] = true
		}
		H := len(distinct)
		for _, op := range hierOps {
			t.Run(layout.name+"/"+op.name, func(t *testing.T) {
				want, _, _ := run(t, layout.hosts, op, true)
				got, interHost, picked := run(t, layout.hosts, op, false)
				for r := range want {
					if !bytes.Equal(got[r], want[r]) {
						t.Errorf("rank %d: two-level result differs from flat (%d vs %d bytes)", r, len(got[r]), len(want[r]))
					}
				}
				if routes := op.twoLevel && H > 1 && (op.commutative || contiguous); routes != (picked == 1) {
					t.Fatalf("two-level selections = %d, want routed = %v", picked, routes)
				} else if closed := op.perHost * (H - 1); routes && interHost != closed {
					t.Errorf("%d messages crossed hosts, closed form for %d hosts is %d", interHost, H, closed)
				}
			})
		}
	}
}

// TestHierOpaqueAllreduceOrder checks that the opaque (elem == 0) allreduce
// preserves rank order through the hierarchical regrouping on contiguous
// layouts — concatenation is associative but not commutative, so any
// reordering would show.
func TestHierOpaqueAllreduceOrder(t *testing.T) {
	concat := func(acc, in []byte) ([]byte, error) {
		out := make([]byte, 0, len(acc)+len(in))
		out = append(out, acc...)
		return append(out, in...), nil
	}
	for _, layout := range hierLayouts {
		if layout.name == "cyclic-2x2" {
			continue // non-contiguous: the selector must fall back to flat anyway
		}
		t.Run(layout.name, func(t *testing.T) {
			w := newHierWorld(t, layout.hosts)
			var want []byte
			for r := range layout.hosts {
				want = append(want, byte('a'+r))
			}
			err := w.Run(func(c *Comm) error {
				got, err := c.Allreduce([]byte{byte('a' + c.Rank())}, concat)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d: concat = %q, want %q", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHierCyclicFallsBackFlat pins the contiguity guard: a cyclic placement
// must route the opaque allreduce and reduce through the flat algorithms
// (concatenation order would break otherwise) while still getting them
// right.
func TestHierCyclicFallsBackFlat(t *testing.T) {
	w := newHierWorld(t, []string{"hA", "hB", "hA", "hB"})
	concat := func(acc, in []byte) ([]byte, error) {
		out := make([]byte, 0, len(acc)+len(in))
		out = append(out, acc...)
		return append(out, in...), nil
	}
	err := w.Run(func(c *Comm) error {
		got, err := c.Allreduce([]byte{byte('a' + c.Rank())}, concat)
		if err != nil {
			return err
		}
		if string(got) != "abcd" {
			return fmt.Errorf("rank %d: concat = %q, want abcd", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pv, err := w.Perf(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap := pv.Snapshot(); snap.Collectives["allreduce"].Hier != 0 {
		t.Errorf("opaque allreduce on a cyclic layout routed hierarchically (hier=%d)", snap.Collectives["allreduce"].Hier)
	}
}

// TestHierPvarRouting checks the selector end to end through the pvar:
// multi-host comms must count hier selections, and a comm pinned flat must
// count none.
func TestHierPvarRouting(t *testing.T) {
	run := func(t *testing.T, flat bool) map[string]perf.CollSnap {
		w := newHierWorld(t, []string{"hA", "hA", "hB", "hB"})
		err := w.Run(func(c *Comm) error {
			c.noHier = flat
			if _, err := c.Bcast(0, hierPayload(0, 4096)); err != nil && c.Rank() != 0 {
				return err
			}
			_, err := c.AllreduceFloats(make([]float64, 512), OpSum)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		pv, err := w.Perf(0)
		if err != nil {
			t.Fatal(err)
		}
		return pv.Snapshot().Collectives
	}
	t.Run("enabled", func(t *testing.T) {
		colls := run(t, false)
		if colls["bcast"].Hier == 0 {
			t.Error("multi-host bcast did not route hierarchically")
		}
		if colls["allreduce"].Hier == 0 {
			t.Error("multi-host allreduce did not route hierarchically")
		}
	})
	t.Run("disabled", func(t *testing.T) {
		colls := run(t, true)
		if h := colls["bcast"].Hier + colls["allreduce"].Hier; h != 0 {
			t.Errorf("a comm pinned flat still routed %d collectives hierarchically", h)
		}
	})
}

// TestChaosPeerLostMidHierInter severs a host leader while the other ranks
// sit inside a hierarchical allreduce's inter-host phase: the surviving
// leader blocks on the dead one in the leader exchange, the dead leader's
// member blocks waiting for its fan-out. Every survivor must return a typed
// error — the directly blocked ones ErrPeerLost, the rest ErrAborted after
// the escalation — instead of hanging.
func TestChaosPeerLostMidHierInter(t *testing.T) {
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetHosts([]string{"hA", "hA", "hB", "hB"}) // leaders: 0 (hA), 2 (hB)

	comms := make([]*Comm, 4)
	for r := range comms {
		c, err := w.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = c
	}
	// Warm-up with all four ranks so the sub-communicator pair is built and
	// cached; the failure below then lands mid-phase, not mid-build.
	var warm sync.WaitGroup
	for _, c := range comms {
		warm.Add(1)
		go func(c *Comm) {
			defer warm.Done()
			if _, err := c.AllreduceFloats([]float64{1}, OpSum); err != nil {
				t.Errorf("warm-up allreduce: %v", err)
			}
		}(c)
	}
	warm.Wait()

	type outcome struct {
		rank int
		err  error
	}
	results := make(chan outcome, 3)
	for _, r := range []int{0, 1, 3} { // rank 2, leader of hB, never shows up
		go func(c *Comm) {
			_, err := c.AllreduceFloats(make([]float64, 1024), OpSum)
			if _, lost := IsPeerLost(err); lost {
				c.Abort(3) // escalate collective peer-loss, like core.handshake
			}
			results <- outcome{rank: c.Rank(), err: err}
		}(comms[r])
	}
	time.Sleep(20 * time.Millisecond) // let the inter-host phase stall on rank 2

	cause := errors.New("injected: leader of hB crashed")
	for _, r := range []int{0, 1, 3} {
		w.envs[r].PeerLost(2, cause)
	}

	sawPeerLost := false
	for i := 0; i < 3; i++ {
		select {
		case o := <-results:
			if o.err == nil {
				t.Fatalf("rank %d: hier allreduce succeeded without its leader", o.rank)
			}
			if rank, lost := IsPeerLost(o.err); lost {
				sawPeerLost = true
				if rank != 2 {
					t.Errorf("rank %d: lost rank %d, want 2", o.rank, rank)
				}
			} else if !errors.Is(o.err, ErrAborted) {
				t.Errorf("rank %d: error %v is neither ErrPeerLost nor ErrAborted", o.rank, o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("leader loss left a survivor blocked mid-hier-collective")
		}
	}
	if !sawPeerLost {
		t.Error("no survivor observed ErrPeerLost (the surviving leader blocks on the dead one)")
	}
}
