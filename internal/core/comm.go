package core

import (
	"fmt"

	"mph/internal/mpi"
)

// CommJoin is MPH_comm_join (paper §5.1): it builds a joint communicator
// over two components, with component a's processors ranked first (in their
// local order) and component b's second. All processors of both components
// must call it collectively, with the same argument order; the argument
// order controls the rank order, exactly as the paper describes for
// MPH_comm_join("atmosphere", "ocean") versus the reversed call.
//
// If the two components overlap on processors, the overlap keeps its rank
// from a's block (group-union semantics).
func (s *Setup) CommJoin(a, b string) (*mpi.Comm, error) {
	if a == b {
		return nil, fmt.Errorf("mph: comm join of %q with itself", a)
	}
	ranksA, err := s.ComponentRanks(a)
	if err != nil {
		return nil, err
	}
	ranksB, err := s.ComponentRanks(b)
	if err != nil {
		return nil, err
	}
	inA := make(map[int]bool, len(ranksA))
	for _, r := range ranksA {
		inA[r] = true
	}
	group := append([]int(nil), ranksA...)
	for _, r := range ranksB {
		if !inA[r] {
			group = append(group, r)
		}
	}

	member := false
	me := s.world.Rank()
	for _, r := range group {
		if r == me {
			member = true
			break
		}
	}
	if !member {
		return nil, fmt.Errorf("%w: join of %q and %q", ErrNotMember, a, b)
	}

	// Label joins with a per-pair sequence number so repeated joins of the
	// same pair get isolated contexts; members call joins for a given pair
	// in the same order, so the counters stay consistent without
	// communication. The setup's own global-communicator context (unique
	// per handshake) is folded in so that joins made through different
	// Setups — two handshakes on the same world — never collide either.
	pair := a + "\x00" + b
	seq := s.joinSeq[pair]
	s.joinSeq[pair]++
	label := fmt.Sprintf("mph-join:%x:%s#%d", s.global.Context(), pair, seq)
	return mpi.CommFromGroup(s.world, group, label)
}

// WorldRankOf translates (component, local processor id) to a world rank —
// the addressing used for inter-component communication (paper §5.2).
func (s *Setup) WorldRankOf(component string, localID int) (int, error) {
	ranks, ok := s.layout[component]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownComponent, component)
	}
	if localID < 0 || localID >= len(ranks) {
		return 0, fmt.Errorf("mph: local id %d out of range for component %q (size %d)", localID, component, len(ranks))
	}
	return ranks[localID], nil
}

// SendTo sends data to the localID-th processor of the named component over
// MPH_Global_World (paper §5.2: "if a processor on atmosphere wants to send
// Process 3 on ocean").
func (s *Setup) SendTo(component string, localID, tag int, data []byte) error {
	dst, err := s.WorldRankOf(component, localID)
	if err != nil {
		return err
	}
	return s.global.Send(dst, tag, data)
}

// RecvFrom receives a message from the localID-th processor of the named
// component. The returned status's Source is that processor's world rank.
func (s *Setup) RecvFrom(component string, localID, tag int) ([]byte, mpi.Status, error) {
	src, err := s.WorldRankOf(component, localID)
	if err != nil {
		return nil, mpi.Status{}, err
	}
	return s.global.Recv(src, tag)
}

// RecvAny receives the next message with the given tag from any component.
// The second return identifies the sender as (component, local id); a
// sender covered by several components is attributed to its primary one.
func (s *Setup) RecvAny(tag int) ([]byte, string, int, error) {
	data, st, err := s.global.Recv(mpi.AnySource, tag)
	if err != nil {
		return nil, "", 0, err
	}
	comp, local := s.identify(st.Source)
	return data, comp, local, nil
}

// identify maps a world rank back to (component, local id).
func (s *Setup) identify(worldRank int) (string, int) {
	// Prefer registry order so overlapping membership resolves to the
	// primary component, mirroring CompName.
	for _, e := range s.reg.Executables {
		for _, c := range e.Components {
			for local, r := range s.layout[c.Name] {
				if r == worldRank {
					return c.Name, local
				}
			}
		}
	}
	return "", -1
}

// SendFloatsTo sends a float64 slice to (component, localID).
func (s *Setup) SendFloatsTo(component string, localID, tag int, xs []float64) error {
	dst, err := s.WorldRankOf(component, localID)
	if err != nil {
		return err
	}
	return s.global.SendFloats(dst, tag, xs)
}

// RecvFloatsFrom receives a float64 slice from (component, localID).
func (s *Setup) RecvFloatsFrom(component string, localID, tag int) ([]float64, mpi.Status, error) {
	data, st, err := s.RecvFrom(component, localID, tag)
	if err != nil {
		return nil, st, err
	}
	xs, err := mpi.DecodeFloats(data)
	return xs, st, err
}
