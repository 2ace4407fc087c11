package mpi

// White-box tests of the fold receive (StartRecvFloatsFold) and the fill
// send (SendFloatsFill): a rendezvous payload folded piece by piece as a
// transport stream reads it, a copy cut short and then sent again, a
// transfer that fails mid-payload, and the eager and in-process paths, which
// fold or fill a whole payload in one piece.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// foldLog records the pieces a fold got and the floats in them.
type foldLog struct {
	pieces [][2]int // [lo, hi) in float indices, in fold order
	got    []float64
	times  []int // how often each float was folded
}

func newFoldLog(n int) *foldLog {
	return &foldLog{got: make([]float64, n), times: make([]int, n)}
}

func (l *foldLog) fold(lo int, seg []float64) {
	l.pieces = append(l.pieces, [2]int{lo, lo + len(seg)})
	for i, v := range seg {
		l.got[lo+i] = v
		l.times[lo+i]++
	}
}

// check reports a fold that did not get want exactly once, in ascending
// pieces of at most max floats.
func (l *foldLog) check(want []float64, max int) error {
	next := 0
	for _, pc := range l.pieces {
		if pc[0] < next || pc[1] <= pc[0] || pc[1]-pc[0] > max {
			return fmt.Errorf("pieces %v: [%d, %d) after %d, or over %d floats", l.pieces, pc[0], pc[1], next, max)
		}
		next = pc[1]
	}
	for i, v := range want {
		if l.times[i] != 1 || math.Float64bits(l.got[i]) != math.Float64bits(v) {
			return fmt.Errorf("float %d folded %d times as %v, want once as %v", i, l.times[i], l.got[i], v)
		}
	}
	return nil
}

// floatsAndWire returns n distinct floats and their wire encoding.
func floatsAndWire(n int) ([]float64, []byte) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)*1.5 - 7
	}
	return xs, encodeFloats(xs)
}

// cutReader reads from r and fails once it has given n bytes.
type cutReader struct {
	r io.Reader
	n int
}

var errCut = errors.New("connection cut")

func (c *cutReader) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, errCut
	}
	k, err := c.r.Read(p[:min(len(p), c.n)])
	c.n -= k
	return k, err
}

// TestFoldRendezvousPieces covers both match orders of a fold receive and a
// rendezvous placeholder: the payload is folded as it is read, in pieces of
// the scratch buffer's size, the last one short, and the packet never holds
// it.
func TestFoldRendezvousPieces(t *testing.T) {
	n := 2*PieceBytes/8 + 3
	want, wire := floatsAndWire(n)
	for _, order := range []string{"receive first", "rts first"} {
		t.Run(order, func(t *testing.T) {
			c := soloComm(t)
			l := newFoldLog(n)
			req := new(Request)
			var p *Packet
			if order == "receive first" {
				c.StartRecvFloatsFold(req, 0, 3, n, l.fold)
				p = placeholder(t, c, 3, len(wire))
			} else {
				p = placeholder(t, c, 3, len(wire))
				c.StartRecvFloatsFold(req, 0, 3, n, l.fold)
			}
			if read, err := p.ReceiveRendezvous(bytes.NewReader(wire)); !read || err != nil {
				t.Fatalf("ReceiveRendezvous = %v, %v", read, err)
			}
			if p.Data != nil {
				t.Error("the packet holds the folded payload")
			}
			if _, st, err := req.Wait(); err != nil || st.Len != len(wire) {
				t.Fatalf("Wait = %+v, %v", st, err)
			}
			if err := l.check(want, PieceBytes/8); err != nil {
				t.Fatal(err)
			}
			if len(l.pieces) != 3 {
				t.Errorf("%d floats came in %d pieces, want 3", n, len(l.pieces))
			}
		})
	}
}

// TestFoldResumesAfterCut: a copy of the payload cut in its second piece
// leaves the first one folded and the transfer open; the full copy a
// sender's resend brings is then folded from the second piece on, so every
// float is folded once.
func TestFoldResumesAfterCut(t *testing.T) {
	n := 3 * PieceBytes / 8
	want, wire := floatsAndWire(n)
	c := soloComm(t)
	l := newFoldLog(n)
	req := new(Request)
	c.StartRecvFloatsFold(req, 0, 3, n, l.fold)
	p := placeholder(t, c, 3, len(wire))
	if read, err := p.ReceiveRendezvous(&cutReader{r: bytes.NewReader(wire), n: PieceBytes * 3 / 2}); !read || !errors.Is(err, errCut) {
		t.Fatalf("the cut copy: ReceiveRendezvous = %v, %v", read, err)
	}
	if done(req) {
		t.Fatal("the receive completed on a cut copy")
	}
	if read, err := p.ReceiveRendezvous(bytes.NewReader(wire)); !read || err != nil {
		t.Fatalf("the resent copy: ReceiveRendezvous = %v, %v", read, err)
	}
	if _, _, err := req.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.check(want, PieceBytes/8); err != nil {
		t.Fatal(err)
	}
	if read, _ := p.ReceiveRendezvous(bytes.NewReader(wire)); read {
		t.Error("a third copy was read after the transfer completed")
	}
}

// TestFoldStopsOnFailure: once the transfer fails — here in the fold of the
// first piece, as a failure sweep would meanwhile — the rest of the payload
// is read off the stream but not folded, and the receive ends with the
// failure.
func TestFoldStopsOnFailure(t *testing.T) {
	n := 3 * PieceBytes / 8
	_, wire := floatsAndWire(n)
	c := soloComm(t)
	p := placeholder(t, c, 3, len(wire))
	failure := errors.New("peer gone")
	pieces := 0
	req := new(Request)
	c.StartRecvFloatsFold(req, 0, 3, n, func(int, []float64) {
		pieces++
		p.Rdv.Fail(failure)
	})
	rd := bytes.NewReader(wire)
	if read, err := p.ReceiveRendezvous(rd); !read || err != nil {
		t.Fatalf("ReceiveRendezvous = %v, %v", read, err)
	}
	if rd.Len() != 0 || pieces != 1 {
		t.Errorf("%d bytes left unread, %d pieces folded; want 0 and 1", rd.Len(), pieces)
	}
	if _, _, err := req.Wait(); !errors.Is(err, failure) {
		t.Fatalf("Wait = %v, want %v", err, failure)
	}
}

// TestFoldTruncated: a fold receive matched by a message of another length
// ends in *ErrTruncated and folds nothing, eager or rendezvous.
func TestFoldTruncated(t *testing.T) {
	c := soloComm(t)
	var trunc *ErrTruncated
	folded := 0
	fold := func(int, []float64) { folded++ }

	if err := c.SendFloats(0, 4, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	req := new(Request)
	c.StartRecvFloatsFold(req, 0, 4, 6, fold)
	if _, _, err := req.Wait(); !errors.As(err, &trunc) || trunc.Posted != 48 || trunc.Arrived != 40 {
		t.Fatalf("eager: Wait = %v, want *ErrTruncated{48, 40}", err)
	}

	_, wire := floatsAndWire(PieceBytes / 8)
	p := placeholder(t, c, 5, len(wire))
	c.StartRecvFloatsFold(req, 0, 5, PieceBytes/8+1, fold)
	if read, err := p.ReceiveRendezvous(bytes.NewReader(wire)); !read || err != nil {
		t.Fatalf("ReceiveRendezvous = %v, %v", read, err)
	}
	if _, _, err := req.Wait(); !errors.As(err, &trunc) {
		t.Fatalf("rendezvous: Wait = %v, want *ErrTruncated", err)
	}
	if folded != 0 {
		t.Errorf("a truncated receive folded %d pieces", folded)
	}
}

// TestFoldFillInProcess: over the in-process transport a fill writes the
// whole payload into the delivered packet in one piece, and a fold takes it
// from there in one piece, at every size, and both meet the plain calls.
func TestFoldFillInProcess(t *testing.T) {
	for _, n := range []int{0, 1, 1000, inprocPooledPayload/8 + 1} {
		want, _ := floatsAndWire(n)
		fill := func(lo int, seg []float64) { copy(seg, want[lo:]) }
		err := RunWorld(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.SendFloatsFill(1, 1, n, fill); err != nil {
					return err
				}
				if err := c.SendFloats(1, 2, want); err != nil {
					return err
				}
				return c.SendFloatsFill(1, 3, n, fill)
			}
			for tag := 1; tag <= 2; tag++ {
				l := newFoldLog(n)
				var req Request
				c.StartRecvFloatsFold(&req, 0, tag, n, l.fold)
				if _, _, err := req.Wait(); err != nil {
					return err
				}
				if err := l.check(want, max(n, 1)); err != nil {
					return fmt.Errorf("%d floats, tag %d: %w", n, tag, err)
				}
				if n > 0 && len(l.pieces) != 1 {
					return fmt.Errorf("%d floats, tag %d: %d pieces, want 1", n, tag, len(l.pieces))
				}
			}
			got := make([]float64, n)
			if _, err := c.RecvFloatsInto(0, 3, got); err != nil {
				return err
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("%d floats filled: float %d is %v, want %v", n, i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
