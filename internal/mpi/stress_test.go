package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"mph/internal/mpi"
	"mph/internal/mpi/mpitest"
)

// Randomized traffic property: every rank derives the same pseudo-random
// schedule of (sender, receiver, tag, length) messages from a shared seed,
// sends its share, and receives exactly what the schedule predicts —
// payload contents encode (seq, src) so misrouted or reordered matches are
// detected.
func TestRandomTrafficSchedules(t *testing.T) {
	const (
		ranks    = 6
		messages = 300
	)
	type slot struct {
		src, dst, tag int
		length        int
		seq           int
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schedule := make([]slot, messages)
			for i := range schedule {
				schedule[i] = slot{
					src:    rng.Intn(ranks),
					dst:    rng.Intn(ranks),
					tag:    rng.Intn(4),
					length: rng.Intn(64),
					seq:    i,
				}
			}
			mpitest.Run(t, ranks, func(c *mpi.Comm) error {
				// Send my messages in schedule order (eager sends cannot
				// block, so ordering across ranks is irrelevant).
				for _, s := range schedule {
					if s.src != c.Rank() {
						continue
					}
					payload := make([]int64, 2+s.length)
					payload[0] = int64(s.seq)
					payload[1] = int64(s.src)
					for j := 0; j < s.length; j++ {
						payload[2+j] = int64(s.seq * (j + 1))
					}
					if err := c.Send(s.dst, s.tag, mpi.EncodeInts(payload)); err != nil {
						return err
					}
				}
				// Receive mine: for each (src, tag) pair the schedule
				// predicts an exact arrival order.
				type key struct{ src, tag int }
				expected := make(map[key][]slot)
				for _, s := range schedule {
					if s.dst == c.Rank() {
						k := key{s.src, s.tag}
						expected[k] = append(expected[k], s)
					}
				}
				for k, slots := range expected {
					for _, want := range slots {
						raw, _, err := c.Recv(k.src, k.tag)
						if err != nil {
							return err
						}
						got, err := mpi.DecodeInts(raw)
						if err != nil {
							return err
						}
						if got[0] != int64(want.seq) || got[1] != int64(want.src) {
							return fmt.Errorf("rank %d (src %d tag %d): got seq %d from %d, want seq %d",
								c.Rank(), k.src, k.tag, got[0], got[1], want.seq)
						}
						if len(got) != 2+want.length {
							return fmt.Errorf("seq %d: length %d, want %d", want.seq, len(got)-2, want.length+2)
						}
						for j := 0; j < want.length; j++ {
							if got[2+j] != int64(want.seq*(j+1)) {
								return fmt.Errorf("seq %d: payload corrupt at %d", want.seq, j)
							}
						}
					}
				}
				return nil
			})
		})
	}
}

// Matching-order torture: one sender, one receiver, and a seeded schedule
// that interleaves exact, AnySource, AnyTag, and fully wildcard receives.
// The receiver models the MPI matching rules directly — per-(src,tag)
// send-order FIFOs for exact matches, global arrival order for wildcards —
// and checks that every receive returns exactly the message the model
// predicts. Run it under -race: the sender and receiver overlap in phase B.
func TestMatchingOrderTorture(t *testing.T) {
	const (
		sender   = 0
		receiver = 1
		tags     = 3
		messages = 400
		posted   = 120
		syncTag  = 7
		readyTag = 8
	)
	for _, seed := range []int64{3, 11, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Both ranks derive the same schedules from the shared seed.
			// Phase A: message tags, sent while the receiver drains the
			// unexpected queue. Phase B: posted-receive envelopes and a
			// message stream aimed at them, matched in posted order.
			schedRng := rand.New(rand.NewSource(seed))
			tagsA := make([]int, messages)
			for i := range tagsA {
				tagsA[i] = schedRng.Intn(tags)
			}
			type post struct{ tag int } // src is always `sender` here
			postsB := make([]post, posted)
			for i := range postsB {
				if schedRng.Intn(3) == 0 {
					postsB[i] = post{mpi.AnyTag}
				} else {
					postsB[i] = post{schedRng.Intn(tags)}
				}
			}
			// Each phase-B message targets a uniformly random still-pending
			// request, so every message matches at least one and all
			// `posted` requests complete after `posted` messages. The model
			// below decides which request actually wins (the oldest match).
			tagsB := make([]int, posted)
			{
				pending := make([]int, posted)
				for i := range pending {
					pending[i] = i
				}
				for i := range tagsB {
					j := schedRng.Intn(len(pending))
					target := postsB[pending[j]]
					if target.tag == mpi.AnyTag {
						tagsB[i] = schedRng.Intn(tags)
					} else {
						tagsB[i] = target.tag
					}
					// Remove the request the model will assign: the oldest
					// pending one whose envelope matches this message.
					for k, p := range pending {
						if postsB[p].tag == mpi.AnyTag || postsB[p].tag == tagsB[i] {
							pending = append(pending[:k], pending[k+1:]...)
							break
						}
					}
				}
			}
			seqPayload := func(seq int) []byte {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], uint64(seq))
				return b[:]
			}

			mpitest.Run(t, 2, func(c *mpi.Comm) error {
				if c.Rank() == sender {
					for seq, tag := range tagsA {
						if err := c.Send(receiver, tag, seqPayload(seq)); err != nil {
							return err
						}
					}
					if err := c.Send(receiver, syncTag, nil); err != nil {
						return err
					}
					// Phase B: wait until the receiver has posted all of its
					// nonblocking receives, then send the matching stream.
					if _, _, err := c.Recv(receiver, readyTag); err != nil {
						return err
					}
					for seq, tag := range tagsB {
						if err := c.Send(receiver, tag, seqPayload(seq)); err != nil {
							return err
						}
					}
					return nil
				}

				// Phase A. The sync message guarantees every scheduled
				// message is already in the unexpected queue (delivery is
				// ordered per sender), so arrival order == send order and
				// wildcard receives are fully deterministic.
				if _, _, err := c.Recv(sender, syncTag); err != nil {
					return err
				}
				type msg struct{ seq, tag int }
				remaining := make([]msg, messages)
				for i, tag := range tagsA {
					remaining[i] = msg{i, tag}
				}
				recvRng := rand.New(rand.NewSource(seed + 1000))
				for len(remaining) > 0 {
					kind := recvRng.Intn(4)
					var src, tag int
					var want msg
					switch kind {
					case 0, 1: // exact tag (direct or via AnySource)
						tag = remaining[recvRng.Intn(len(remaining))].tag
						for _, m := range remaining {
							if m.tag == tag {
								want = m
								break
							}
						}
						src = sender
						if kind == 1 {
							src = mpi.AnySource
						}
					case 2: // AnyTag: globally oldest message
						src, tag, want = sender, mpi.AnyTag, remaining[0]
					default: // fully wildcard: globally oldest message
						src, tag, want = mpi.AnySource, mpi.AnyTag, remaining[0]
					}
					data, st, err := c.Recv(src, tag)
					if err != nil {
						return err
					}
					got := int(binary.LittleEndian.Uint64(data))
					if got != want.seq || st.Tag != want.tag || st.Source != sender {
						return fmt.Errorf("recv(%d,%d): got seq %d tag %d, want seq %d tag %d",
							src, tag, got, st.Tag, want.seq, want.tag)
					}
					for k, m := range remaining {
						if m.seq == want.seq {
							remaining = append(remaining[:k], remaining[k+1:]...)
							break
						}
					}
				}

				// Phase B: post every receive up front, then release the
				// sender and replay the model — message i completes the
				// oldest posted request whose envelope matches it.
				reqs := make([]mpi.Request, posted)
				for i, p := range postsB {
					c.StartRecvInto(&reqs[i], sender, p.tag, make([]byte, 8))
				}
				wantSeq := make([]int, posted)
				for i := range wantSeq {
					wantSeq[i] = -1
				}
				pending := make([]int, posted)
				for i := range pending {
					pending[i] = i
				}
				for seq, tag := range tagsB {
					for k, p := range pending {
						if postsB[p].tag == mpi.AnyTag || postsB[p].tag == tag {
							wantSeq[p] = seq
							pending = append(pending[:k], pending[k+1:]...)
							break
						}
					}
				}
				if err := c.Send(sender, readyTag, nil); err != nil {
					return err
				}
				for i := range reqs {
					data, st, err := reqs[i].Wait()
					if err != nil {
						return fmt.Errorf("request %d: %w", i, err)
					}
					got := int(binary.LittleEndian.Uint64(data))
					if got != wantSeq[i] {
						return fmt.Errorf("request %d (tag %d): matched seq %d, want %d",
							i, postsB[i].tag, got, wantSeq[i])
					}
					if st.Tag != tagsB[wantSeq[i]] {
						return fmt.Errorf("request %d: status tag %d, want %d",
							i, st.Tag, tagsB[wantSeq[i]])
					}
				}
				return nil
			})
		})
	}
}

// Concurrent split storm: many rounds of splits with varying colors must
// keep contexts isolated (a regression net for context derivation).
func TestRepeatedSplitIsolation(t *testing.T) {
	const ranks, rounds = 8, 12
	mpitest.Run(t, ranks, func(c *mpi.Comm) error {
		comms := make([]*mpi.Comm, 0, rounds)
		for round := 0; round < rounds; round++ {
			sub, err := c.SplitWith(colorsOf(c, func(r int) int { return (r + round) % 3 }), nil)
			if err != nil {
				return err
			}
			comms = append(comms, sub)
		}
		// Every one of the 12 subcommunicators must still work and count
		// only its own members.
		for round, sub := range comms {
			want := 0
			for r := 0; r < ranks; r++ {
				if (r+round)%3 == (c.Rank()+round)%3 {
					want++
				}
			}
			sum, err := sub.AllreduceInts([]int64{1}, mpi.OpSum)
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if sum[0] != int64(want) {
				return fmt.Errorf("round %d: sum %d, want %d", round, sum[0], want)
			}
		}
		// All contexts distinct.
		seen := make(map[uint64]int)
		for round, sub := range comms {
			if prev, dup := seen[sub.Context()]; dup {
				return fmt.Errorf("rounds %d and %d share context %x", prev, round, sub.Context())
			}
			seen[sub.Context()] = round
		}
		return nil
	})
}
