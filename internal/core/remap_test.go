package core_test

import (
	"fmt"
	"testing"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// Remap scenario: the ocean shrinks from 4 to 2 ranks and the atmosphere
// grows from 2 to 4 — a dynamic processor reallocation (§9(b)) driven
// purely by a new registration file and a second handshake.
const (
	remapBefore = "BEGIN\natm\nocn\nEND\n" // atm ranks 0-1, ocn ranks 2-5
	remapAfter  = "BEGIN\natm\nocn\nEND\n" // atm ranks 0-3, ocn ranks 4-5
)

func remapRoleBefore(rank int) string {
	if rank < 2 {
		return "atm"
	}
	return "ocn"
}

func remapRoleAfter(rank int) string {
	if rank < 4 {
		return "atm"
	}
	return "ocn"
}

func TestRemapChangesLayout(t *testing.T) {
	mpitest.Run(t, 6, func(c *mpi.Comm) error {
		s1, err := core.SingleComponentSetup(c, core.TextSource(remapBefore), remapRoleBefore(c.Rank()))
		if err != nil {
			return err
		}
		ocnBefore, err := s1.ComponentRanks("ocn")
		if err != nil {
			return err
		}
		if len(ocnBefore) != 4 {
			return fmt.Errorf("ocn before: %v", ocnBefore)
		}

		s2, err := s1.RemapSingle(core.TextSource(remapAfter), remapRoleAfter(c.Rank()))
		if err != nil {
			return err
		}
		ocnAfter, err := s2.ComponentRanks("ocn")
		if err != nil {
			return err
		}
		if len(ocnAfter) != 2 || ocnAfter[0] != 4 || ocnAfter[1] != 5 {
			return fmt.Errorf("ocn after: %v", ocnAfter)
		}
		atmAfter, err := s2.ComponentRanks("atm")
		if err != nil {
			return err
		}
		if len(atmAfter) != 4 {
			return fmt.Errorf("atm after: %v", atmAfter)
		}

		// The two setups' communicators are isolated: traffic on the new
		// atm communicator is invisible to the old one even for ranks in
		// both (ranks 0-1).
		if c.Rank() < 2 {
			old, _ := s1.ProcInComponent("atm")
			cur, _ := s2.ProcInComponent("atm")
			if old.Context() == cur.Context() {
				return fmt.Errorf("remapped communicator shares the old context")
			}
		}
		// The new setup is fully functional: name-addressed p2p.
		const tag = 6
		if remapRoleAfter(c.Rank()) == "atm" && s2.LocalProcID() == 3 {
			if err := s2.SendTo("ocn", 0, tag, []byte("post-remap")); err != nil {
				return err
			}
		}
		if remapRoleAfter(c.Rank()) == "ocn" && s2.LocalProcID() == 0 {
			data, _, err := s2.RecvFrom("atm", 3, tag)
			if err != nil {
				return err
			}
			if string(data) != "post-remap" {
				return fmt.Errorf("got %q", data)
			}
		}
		return nil
	})
}

func TestRemapMultiInstance(t *testing.T) {
	before := "BEGIN\nMulti_Instance_Begin\nE1 0 1\nE2 2 3\nMulti_Instance_End\nEND\n"
	after := "BEGIN\nMulti_Instance_Begin\nE1 0 0\nE2 1 1\nE3 2 2\nE4 3 3\nMulti_Instance_End\nEND\n"
	mpitest.Run(t, 4, func(c *mpi.Comm) error {
		s1, err := core.MultiInstance(c, core.TextSource(before), "E")
		if err != nil {
			return err
		}
		if s1.NumInstances() != 2 {
			return fmt.Errorf("before: %d instances", s1.NumInstances())
		}
		s2, err := s1.RemapMultiInstance(core.TextSource(after), "E")
		if err != nil {
			return err
		}
		if s2.NumInstances() != 4 || s2.InstanceIndex() != c.Rank() {
			return fmt.Errorf("after: %d instances, idx %d", s2.NumInstances(), s2.InstanceIndex())
		}
		return nil
	})
}

func TestTopologyNodeMath(t *testing.T) {
	top := core.Topology{RanksPerNode: 4}
	if top.NodeOf(0) != 0 || top.NodeOf(3) != 0 || top.NodeOf(4) != 1 || top.NodeOf(11) != 2 {
		t.Fatal("NodeOf wrong")
	}
	if top.NodeCount(8) != 2 || top.NodeCount(9) != 3 || top.NodeCount(1) != 1 {
		t.Fatal("NodeCount wrong")
	}
}

func TestNodeCommAndCoResidency(t *testing.T) {
	// 8 ranks on 2 four-rank nodes; atm ranks 0-2, ocn 3-5, cpl 6-7:
	// node 0 hosts atm+ocn, node 1 hosts ocn+cpl.
	reg := "BEGIN\natm\nocn\ncpl\nEND\n"
	launch := func(rank int) string {
		switch {
		case rank < 3:
			return "atm"
		case rank < 6:
			return "ocn"
		default:
			return "cpl"
		}
	}
	top := core.Topology{RanksPerNode: 4}
	mpitest.Run(t, 8, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(reg), launch(c.Rank()))
		if err != nil {
			return err
		}
		node, err := s.NodeComm(top)
		if err != nil {
			return err
		}
		if node.Node != c.Rank()/4 {
			return fmt.Errorf("rank %d on node %d", c.Rank(), node.Node)
		}
		if node.Comm.Size() != 4 || node.Comm.Rank() != c.Rank()%4 {
			return fmt.Errorf("node comm %d/%d", node.Comm.Rank(), node.Comm.Size())
		}
		// Node-local collective works (the shared-memory domain).
		sum, err := node.Comm.AllreduceInts([]int64{int64(c.Rank())}, mpi.OpSum)
		if err != nil {
			return err
		}
		want := int64(0 + 1 + 2 + 3)
		if node.Node == 1 {
			want = 4 + 5 + 6 + 7
		}
		if sum[0] != want {
			return fmt.Errorf("node sum %d, want %d", sum[0], want)
		}

		// Co-residency inquiry.
		comps := node.ComponentsOnNode()
		wantComps := []string{"atm", "ocn"}
		if node.Node == 1 {
			wantComps = []string{"ocn", "cpl"}
		}
		if len(comps) != 2 || comps[0] != wantComps[0] || comps[1] != wantComps[1] {
			return fmt.Errorf("node %d components %v, want %v", node.Node, comps, wantComps)
		}

		nodes, err := s.ComponentNodes("ocn", top)
		if err != nil {
			return err
		}
		if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
			return fmt.Errorf("ocn nodes %v", nodes)
		}
		if shared, err := s.SharesNode("atm", "ocn", top); err != nil || !shared {
			return fmt.Errorf("atm/ocn SharesNode = %v, %v", shared, err)
		}
		if shared, err := s.SharesNode("atm", "cpl", top); err != nil || shared {
			return fmt.Errorf("atm/cpl SharesNode = %v, %v", shared, err)
		}
		if _, err := s.SharesNode("atm", "ghost", top); err == nil {
			return fmt.Errorf("unknown component accepted")
		}
		return nil
	})
}

func TestNodeCommValidation(t *testing.T) {
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource("BEGIN\nx\nEND\n"), "x")
		if err != nil {
			return err
		}
		if _, err := s.NodeComm(core.Topology{RanksPerNode: 0}); err == nil {
			return fmt.Errorf("zero ranks per node accepted")
		}
		if _, err := s.ComponentNodes("x", core.Topology{RanksPerNode: -1}); err == nil {
			return fmt.Errorf("negative ranks per node accepted")
		}
		// NodeComm is collective: both ranks must still agree, so run a
		// valid split to keep them in lockstep.
		if _, err := s.NodeComm(core.Topology{RanksPerNode: 1}); err != nil {
			return err
		}
		return nil
	})
}

func TestCommJoinIsolatedAcrossRemaps(t *testing.T) {
	// Joins of the same component pair through the pre- and post-remap
	// setups must not share a message context.
	reg := "BEGIN\na\nb\nEND\n"
	mpitest.Run(t, 2, func(c *mpi.Comm) error {
		name := "a"
		if c.Rank() == 1 {
			name = "b"
		}
		s1, err := core.SingleComponentSetup(c, core.TextSource(reg), name)
		if err != nil {
			return err
		}
		s2, err := s1.RemapSingle(core.TextSource(reg), name)
		if err != nil {
			return err
		}
		j1, err := s1.CommJoin("a", "b")
		if err != nil {
			return err
		}
		j2, err := s2.CommJoin("a", "b")
		if err != nil {
			return err
		}
		if j1.Context() == j2.Context() {
			return fmt.Errorf("joins across remaps share context %x", j1.Context())
		}
		// Traffic on j2 must not be readable on j1.
		if c.Rank() == 0 {
			if err := j2.Send(1, 0, []byte("new")); err != nil {
				return err
			}
			if err := j1.Send(1, 0, []byte("old")); err != nil {
				return err
			}
		} else {
			got, _, err := j2.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(got) != "new" {
				return fmt.Errorf("got %q", got)
			}
			if got, _, err = j1.Recv(0, mpi.AnyTag); err != nil || string(got) != "old" {
				return fmt.Errorf("old join got %q, %v: a message leaked onto it", got, err)
			}
		}
		return nil
	})
}
