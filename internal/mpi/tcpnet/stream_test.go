package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"mph/internal/mpi"
)

// TestStreamIdentity drives the identity rule over a raw socket: a stream
// that does not open with a hello from a rank of this world, or that later
// names another rank, is cut — before anything is posted to the engine or
// sized from its headers — and the connection is closed so the writer finds
// out at once. No frame is exempt: an abort is obeyed only from a peer that
// said hello, or over the rank's session with the launcher, so whatever can
// reach a rank's port cannot kill the job.
func TestStreamIdentity(t *testing.T) {
	packetFrom := func(src uint64, payload string) []byte {
		return wireOf(kindPacket, []uint64{src, 0, 0, 9, 0}, payload)
	}
	// A header claiming a payload just under the frame bound, with no payload
	// behind it: acting on it would allocate a gibibyte.
	huge := packetFrom(1, "")
	binary.LittleEndian.PutUint32(huge, maxFrame)
	rows := []struct {
		name   string
		frames [][]byte
	}{
		{"packet before any hello", [][]byte{packetFrom(1, "stranger")}},
		{"huge packet header before any hello", [][]byte{huge}},
		{"rts before any hello", [][]byte{wireOf(kindRTS, []uint64{1, 0, 0, 9, 1, 64}, "")}},
		{"cts before any hello", [][]byte{wireOf(kindCTS, []uint64{9}, "")}},
		{"bare abort before any hello", [][]byte{wireOf(kindAbort, []uint64{9, neg(-1)}, "")}},
		{"hello from a rank outside the world", [][]byte{helloFrame(2, "")}},
		{"hello from a negative rank", [][]byte{wireOf(kindHello, []uint64{neg(-1)}, "")}},
		{"packet naming another rank", [][]byte{helloFrame(1, ""), packetFrom(0, "impostor")}},
		{"rdata naming another rank", [][]byte{helloFrame(1, ""), wireOf(kindRData, []uint64{0, 1}, "x")}},
		{"second hello naming another rank", [][]byte{helloFrame(1, ""), helloFrame(0, "")}},
	}
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	nc := &envs[0].Perf().Net
	for _, row := range rows {
		conn, err := net.Dial("tcp", trs[0].ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range row.frames {
			if _, err := conn.Write(f); err != nil {
				t.Fatalf("%s: write: %v", row.name, err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// EOF, or a reset when the reader left bytes of the stream unread.
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: the reader did not close the stream (read: %v)", row.name, err)
		}
		conn.Close()
		if got := nc.FramesIn.Load(); got != 0 {
			t.Fatalf("%s: %d frames were accepted", row.name, got)
		}
		if ae := trs[0].abortErr.Load(); ae != nil || nc.AbortsIn.Load() != 0 {
			t.Fatalf("%s: a stranger aborted the rank (%v)", row.name, ae)
		}
	}

	// The rule admits the well-formed stream: hello, then frames from the
	// same rank.
	conn, err := net.Dial("tcp", trs[0].ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(helloFrame(1, ""))
	conn.Write(packetFrom(1, "member"))
	for deadline := time.Now().Add(5 * time.Second); nc.FramesIn.Load() != 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a well-formed raw stream (hello, then a packet from the same rank) was not accepted")
		}
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestFaultSeverRedialLeaksNoFDs is the regression test for the reader that
// never closed its connection: every severed and redialed stream used to
// leave its receive-side descriptor open until Close. Fifty sever/redial
// cycles between two ranks must leave the descriptor count where it was.
func TestFaultSeverRedialLeaksNoFDs(t *testing.T) {
	trs, envs := startWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()
	c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])
	cycle := func(i int) {
		recvd := make(chan error, 1)
		go func() {
			_, _, err := c1.Recv(0, 3)
			if err == nil {
				err = c1.Send(0, 4, nil)
			}
			recvd <- err
		}()
		// The cycle ends only once the receiver has consumed the message and
		// answered — over a reverse stream it dialed or reused.
		if err := c0.Send(1, 3, []byte(fmt.Sprintf("msg%d", i))); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if _, _, err := c0.Recv(1, 4); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := <-recvd; err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	cycle(0) // both directions dialed: the steady state
	before := openFDs(t)
	const cycles = 50
	for i := 1; i <= cycles; i++ {
		trs[0].peers[1].sever(false)
		cycle(i)
	}
	// A reader notices its severed stream asynchronously; give the last few
	// a moment, then hold the count to a constant far below one per cycle.
	var after int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if after = openFDs(t); after <= before+4 || time.Now().After(deadline) {
			break
		}
	}
	if after > before+4 {
		t.Fatalf("open fds %d -> %d across %d sever/redial cycles: severed inbound streams are leaking", before, after, cycles)
	}
	if dials := envs[0].Perf().Net.Dials.Load(); dials < cycles {
		t.Fatalf("Dials = %d after %d severs: the cycles did not redial", dials, cycles)
	}
}

// TestFaultCTSSurvivesConnectionLoss: a CTS is a reply on the receiver's
// stream back to the sender, and one lost there would strand a rendezvous
// send with both ranks alive, where no down line ever comes; it takes
// the redial-once send path. One row severs the stream with MPH_FAULT's
// frame=cts filter just before the CTS is written; the other breaks the
// connection underneath the transport, so the CTS's first write fails on a
// stale stream.
func TestFaultCTSSurvivesConnectionLoss(t *testing.T) {
	for _, row := range []struct{ name, fault string }{
		{"sever,frame=cts", "sever,rank=1,frame=cts"},
		{"stale stream", ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Setenv(EnvFault, row.fault)
			trs, envs := startWorld(t, 2)
			setEagerThreshold(trs, 1024)
			defer envs[0].Close()
			defer envs[1].Close()
			c0, c1 := mpi.WorldComm(envs[0]), mpi.WorldComm(envs[1])

			// Rank 1 talks to rank 0 first, so the stream its CTS will use
			// exists before the fault.
			go c1.Send(0, 1, []byte("warmup"))
			if _, _, err := c0.Recv(1, 1); err != nil {
				t.Fatal(err)
			}
			if row.fault == "" {
				trs[1].peers[0].established().conn.Close()
			}

			go c1.Recv(0, 2)
			done := make(chan error, 1)
			go func() { done <- c0.Send(1, 2, make([]byte, 4<<10)) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("rendezvous send: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("rendezvous send hung: its CTS was lost with the receiver's connection")
			}
			nc := &envs[1].Perf().Net
			if got := nc.Dials.Load(); got != 2 {
				t.Errorf("receiver Dials = %d, want 2 (the CTS's stream was redialed once)", got)
			}
			if got, want := nc.FaultsInjected.Load(), uint64(len(strings.Fields(row.fault))); got != want {
				t.Errorf("receiver FaultsInjected = %d, want %d", got, want)
			}
		})
	}
}
