package tcpnet

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"mph/internal/mpi"
)

// TestLingerDeliversLastMessage: a rank that sends its last messages and
// closes at once loses none of them to its own down line. Close lingers until
// the receiver's reader has posted every frame, and only then says bye; so a
// receive posted after the down line arrived (eager: a burst that is still in
// the socket when the sender closes) or waiting while it arrives (rendezvous,
// on TCP and on the intra-host channel: a payload larger than the socket
// buffers) gets the bytes, not ErrPeerLost. The down line is final, so no
// loss is counted. Each case runs 20 rounds, each on a fresh world.
func TestLingerDeliversLastMessage(t *testing.T) {
	cases := []struct {
		name       string
		size, msgs int
		rendezvous bool // else eager
		split      bool // distinct hosts: rendezvous payloads stay on TCP
	}{
		{name: "eager", size: 32 << 10, msgs: 32},
		{name: "rendezvous over tcp", size: 8 << 20, msgs: 1, rendezvous: true, split: true},
		{name: "rendezvous over the intra-host channel", size: 8 << 20, msgs: 1, rendezvous: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				if err := lingerRound(t, c.size, c.msgs, c.rendezvous, c.split); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
}

// lingerRound is one world of two: rank 0 sends msgs messages of size bytes
// to rank 1 and closes right after the last send returns.
func lingerRound(t *testing.T, size, msgs int, rendezvous, split bool) error {
	trs, envs := startWorld(t, 2)
	defer envs[1].Close()
	if rendezvous {
		setEagerThreshold(trs, size)
	} else {
		setEagerThreshold(trs, math.MaxInt)
	}
	if split {
		splitHosts(envs)
	}
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }

	got := make(chan error, 1)
	if rendezvous { // the send blocks until this receive has matched
		go func() { got <- expect(c1, payload(0)) }()
	}
	for i := 0; i < msgs; i++ {
		if err := c0.Send(1, 7, payload(i)); err != nil {
			return fmt.Errorf("send %d: %w", i, err)
		}
	}
	if err := envs[0].Close(); err != nil {
		return err
	}
	if rendezvous {
		if err := <-got; err != nil {
			return err
		}
		if viaShm := envs[0].Perf().Net.ShmRDataOut.Load() == 1; viaShm == split {
			return fmt.Errorf("payload took the intra-host channel: %v, want %v", viaShm, !split)
		}
	} else {
		for deadline := time.Now().Add(5 * time.Second); trs[1].peers[0].deadErr() == nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("the down line for rank 0 never arrived")
			}
		}
		for i := 0; i < msgs; i++ {
			if err := expect(c1, payload(i)); err != nil {
				return fmt.Errorf("message %d, received after the down line: %w", i, err)
			}
		}
	}
	if lost := envs[1].Perf().Net.PeersLost.Load(); lost != 0 {
		return fmt.Errorf("PeersLost = %d after a clean close, want 0", lost)
	}
	return nil
}

// expect receives one message from rank 0 and checks it is want.
func expect(c *mpi.Comm, want []byte) error {
	data, _, err := c.Recv(0, 7)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("received %d bytes that differ from the %d sent", len(data), len(want))
	}
	return nil
}
