package tcpnet

import (
	"bytes"
	"io"
	"testing"
)

// FuzzFrameDecode feeds adversarial byte streams through the decoder loop
// production runs — stream.run, hence decode, the frame table and the
// identity rule — with a recording handler in place of each production one.
// Invariants: no panic; every frame a handler is given re-encodes to exactly
// the bytes the loop consumed for it; and no handler runs (so nothing can be
// sized from a header) before the stream has identified itself.
func FuzzFrameDecode(f *testing.F) {
	stream3 := func(frames ...[]byte) []byte {
		return bytes.Join(append([][]byte{helloFrame(3, "")}, frames...), nil)
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0, 0}, false)
	f.Add([]byte{1, 0, 0, 0, kindPacket}, false)
	f.Add([]byte{1, 0, 0, 0, kindRTS}, false)
	f.Add([]byte{1, 0, 0, 0, kindCTS}, false)
	f.Add([]byte{1, 0, 0, 0, kindRData}, true)
	f.Add(helloFrame(0, ""), true)
	f.Add(helloFrame(3, "/tmp/mph-shm-test/r3.sock"), false)
	f.Add(encode(nil, frame{kind: kindAbort, code: 1, origin: -1}, 0), false)
	f.Add(wireOf(kindPacket, []uint64{0, 7, 1, 2}, "payload"), false) // no hello first
	f.Add(stream3(wireOf(kindPacket, []uint64{3, 7, 1, 2}, "payload")), false)
	f.Add(stream3(wireOf(kindPacket, []uint64{2, 7, 1, 2}, "impostor")), false)
	f.Add(stream3([]byte{1, 0, 0, 0, 4}, encode(nil, frame{kind: kindCTS, id: 9}, 0)), false) // kind 4 is unassigned
	f.Add(stream3(wireOf(kindRTS, []uint64{3, 7, 1, 2, 17, 7}, ""), encode(nil, frame{kind: kindCTS, id: 17}, 0)), false)
	f.Add(stream3(wireOf(kindRData, []uint64{3, 17}, "payload")), true)
	f.Add(stream3(encode(nil, frame{kind: kindAbort, code: 2, origin: 3}, 0)), false)
	f.Fuzz(func(t *testing.T, buf []byte, local bool) {
		r := bytes.NewReader(buf)
		s := &stream{r: r, local: local, size: 4, peer: -1}
		start := 0 // offset in buf of the frame being decoded
		record := func(s *stream, f frame, tail int) error {
			if s.peer < 0 {
				t.Fatalf("handler for %+v ran on an unidentified stream", f)
			}
			if f.kind == kindHello && (f.src != s.peer || f.src < 0 || f.src >= s.size) {
				t.Fatalf("hello from rank %d accepted on the stream of rank %d (world of %d)", f.src, s.peer, s.size)
			}
			if s.local && !frameTable[f.kind].unix {
				t.Fatalf("%s frame dispatched on the intra-host carrier", frameTable[f.kind].name)
			}
			// Copy, not make([]byte, tail): the fuzzer's claim may be 1 GiB.
			var body bytes.Buffer
			if _, err := io.CopyN(&body, s.r, int64(tail)); err != nil {
				return err
			}
			end := len(buf) - r.Len()
			if again := append(encode(nil, f, tail), body.Bytes()...); !bytes.Equal(again, buf[start:end]) {
				t.Fatalf("frame %+v re-encodes to % x, stream had % x", f, again, buf[start:end])
			}
			start = end
			return nil
		}
		var hs [len(frameTable)]handler
		for k := range hs {
			hs[k] = record
		}
		if err := s.run(&hs); err == nil {
			t.Fatal("decoder loop returned without an error on a finite stream")
		}
	})
}
