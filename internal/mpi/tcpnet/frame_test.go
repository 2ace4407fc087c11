package tcpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// wireOf hand-assembles a frame — length prefix, kind byte, then the given
// u64 words and raw tail — independently of encode, so the tables below pin
// the byte layout and not merely encode/decode symmetry.
func wireOf(kind byte, words []uint64, tail string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+8*len(words)+len(tail)))
	b = append(b, kind)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return append(b, tail...)
}

// decodeAll runs the production decoder over one frame's bytes and returns
// the fields, the tail it left unread, and the error.
func decodeAll(wire []byte) (frame, []byte, error) {
	r := bytes.NewReader(wire)
	var scratch [prefixLen + rtsHdrLen]byte
	f, tail, err := decode(r, scratch[:])
	if err != nil {
		return f, nil, err
	}
	rest, _ := io.ReadAll(r)
	if len(rest) != tail {
		return f, rest, fmt.Errorf("decode reported a %d-byte tail, %d bytes left unread", tail, len(rest))
	}
	return f, rest, nil
}

// checkRoundTrip encodes f with tail, decodes the bytes, and requires the
// same fields and tail back.
func checkRoundTrip(f frame, tail []byte) error {
	wire := append(encode(nil, f, len(tail)), tail...)
	got, rest, err := decodeAll(wire)
	if err != nil {
		return fmt.Errorf("%+v: %v", f, err)
	}
	if got != f || !bytes.Equal(rest, tail) {
		return fmt.Errorf("round trip: sent %+v tail %q, got %+v tail %q", f, tail, got, rest)
	}
	return nil
}

// neg is the two's-complement wire form of a negative i64 field.
func neg(n int64) uint64 { return uint64(n) }

// TestFrameRoundTrip is the accepting half of the codec table: for each of
// the six kinds, frames that must survive encode → decode unchanged, with
// the exact bytes pinned wherever a row gives them.
func TestFrameRoundTrip(t *testing.T) {
	rows := []struct {
		name string
		f    frame
		tail string
		wire []byte // expected encoding; nil = round trip only
	}{
		{name: "packet", f: frame{kind: kindPacket, src: 3, ctx: 7, rank: 1, tag: 2}, tail: "payload",
			wire: wireOf(kindPacket, []uint64{3, 7, 1, 2}, "payload")},
		// The eager header spelled out: length 1+32+1, kind, then srcWorld,
		// ctx, src, tag — 32 bytes, no ack id.
		{name: "packet, golden 32-byte header", f: frame{kind: kindPacket, src: 1, ctx: 0x0102030405060708, rank: 2, tag: 3}, tail: "x",
			wire: []byte{34, 0, 0, 0, kindPacket,
				1, 0, 0, 0, 0, 0, 0, 0,
				8, 7, 6, 5, 4, 3, 2, 1,
				2, 0, 0, 0, 0, 0, 0, 0,
				3, 0, 0, 0, 0, 0, 0, 0,
				'x'}},
		{name: "packet, headers only", f: frame{kind: kindPacket, src: 0, ctx: 1},
			wire: wireOf(kindPacket, []uint64{0, 1, 0, 0}, "")},
		// Wildcard receives never cross the wire, but negative comm ranks in
		// corrupted frames must not wrap into huge positives silently.
		{name: "packet, negative src and tag", f: frame{kind: kindPacket, src: 2, ctx: 1, rank: -3, tag: -7},
			wire: wireOf(kindPacket, []uint64{2, 1, neg(-3), neg(-7)}, "")},
		{name: "hello", f: frame{kind: kindHello, src: 3}, wire: wireOf(kindHello, []uint64{3}, "")},
		{name: "hello with socket path", f: frame{kind: kindHello, src: 3}, tail: "/tmp/mph-shm-test/r3.sock",
			wire: wireOf(kindHello, []uint64{3}, "/tmp/mph-shm-test/r3.sock")},
		{name: "hello, longest path", f: frame{kind: kindHello, src: 1}, tail: strings.Repeat("p", maxShmPath)},
		// The abort spelled out: length 1+16, kind, then code and origin as
		// two's-complement i64s — the launcher's origin is -1.
		{name: "abort", f: frame{kind: kindAbort, code: 5, origin: -1},
			wire: []byte{17, 0, 0, 0, kindAbort,
				5, 0, 0, 0, 0, 0, 0, 0,
				0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{name: "abort, negative code", f: frame{kind: kindAbort, code: -2, origin: 3},
			wire: wireOf(kindAbort, []uint64{neg(-2), 3}, "")},
		{name: "rts", f: frame{kind: kindRTS, src: 1, ctx: 7, rank: 1, tag: 2, id: 17, plen: 7},
			wire: wireOf(kindRTS, []uint64{1, 7, 1, 2, 17, 7}, "")},
		{name: "rts, largest promise", f: frame{kind: kindRTS, src: 1, id: 1, plen: maxFrame - 1 - rdataHdrLen}},
		{name: "cts", f: frame{kind: kindCTS, id: 42}, wire: wireOf(kindCTS, []uint64{42}, "")},
		{name: "rdata", f: frame{kind: kindRData, src: 3, id: 0xABCD}, tail: "rendezvous payload bytes",
			wire: wireOf(kindRData, []uint64{3, 0xABCD}, "rendezvous payload bytes")},
		{name: "rdata, empty payload", f: frame{kind: kindRData, src: 3, id: 1}},
	}
	seen := map[byte]bool{}
	for _, row := range rows {
		seen[row.f.kind] = true
		if err := checkRoundTrip(row.f, []byte(row.tail)); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		if got := append(encode(nil, row.f, len(row.tail)), row.tail...); row.wire != nil && !bytes.Equal(got, row.wire) {
			t.Errorf("%s: encoded as % x, want % x", row.name, got, row.wire)
		}
	}
	for kind, spec := range frameTable {
		if spec.name != "" && !seen[byte(kind)] {
			t.Errorf("no round-trip row for kind %d (%s)", kind, spec.name)
		}
	}
	if got, want := helloFrame(3, "/x.sock"), wireOf(kindHello, []uint64{3}, "/x.sock"); !bytes.Equal(got, want) {
		t.Errorf("helloFrame = % x, want % x", got, want)
	}

	// The same property over random field values, every kind.
	var kinds []byte
	for kind, spec := range frameTable {
		if spec.name != "" {
			kinds = append(kinds, byte(kind))
		}
	}
	prop := func(sel, src uint8, ctx uint64, rank, tag int16, id uint64, plen uint16, code, origin int16, tail []byte) bool {
		f := frame{kind: kinds[int(sel)%len(kinds)]}
		spec := frameTable[f.kind]
		if spec.hasSrc {
			f.src = int(src)
		}
		switch f.kind {
		case kindPacket, kindRTS:
			f.ctx, f.rank, f.tag = ctx, int(rank), int(tag)
			if f.kind == kindRTS {
				f.id, f.plen = id, int(plen)+1 // a promised length must be positive
			}
		case kindCTS, kindRData:
			f.id = id
		case kindAbort:
			f.code, f.origin = int(code), int(origin)
		}
		if len(tail) > spec.maxTail {
			tail = tail[:spec.maxTail]
		}
		if err := checkRoundTrip(f, tail); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameRejection is the rejecting half: byte strings the decoder must
// refuse, each before anything is sized from them.
func TestFrameRejection(t *testing.T) {
	rts := func(plen uint64) []byte { return wireOf(kindRTS, []uint64{0, 1, 0, 0, 7, plen}, "") }
	rows := []struct {
		name string
		wire []byte
		want error  // nil = any error
		text string // a substring the error must carry; "" = any
	}{
		{name: "empty stream", wire: nil, want: io.EOF},
		{name: "truncated length prefix", wire: []byte{1, 2}, want: io.ErrUnexpectedEOF},
		{name: "zero-length frame", wire: []byte{0, 0, 0, 0, kindPacket}},
		{name: "oversized frame", wire: append(binary.LittleEndian.AppendUint32(nil, maxFrame+1), kindPacket)},
		{name: "truncated body", wire: append(binary.LittleEndian.AppendUint32(nil, 100), append([]byte{kindPacket}, make([]byte, 9)...)...), want: io.ErrUnexpectedEOF},
		{name: "kind 0", wire: []byte{1, 0, 0, 0, 0}, text: "unknown frame kind 0"},
		// Kind 2 was the Ssend release, kind 4 the idle-stream heartbeat; they
		// left with Ssend and with the heartbeat, and are refused like any
		// byte the table does not assign.
		{name: "kind 2, the retired ack", wire: wireOf(2, []uint64{9}, ""), text: "unknown frame kind 2"},
		{name: "kind 4, the retired heartbeat", wire: []byte{1, 0, 0, 0, 4}, text: "unknown frame kind 4"},
		{name: "kind past the table", wire: []byte{1, 0, 0, 0, byte(len(frameTable))}},
		{name: "short packet body", wire: wireOf(kindPacket, []uint64{0}, "xx")},
		{name: "bare packet kind", wire: []byte{1, 0, 0, 0, kindPacket}},
		{name: "short rts body", wire: wireOf(kindRTS, []uint64{0, 1, 0, 0, 7}, "1234567")},
		{name: "long rts body", wire: wireOf(kindRTS, []uint64{0, 1, 0, 0, 7, 1}, "x")},
		{name: "bare rts kind", wire: []byte{1, 0, 0, 0, kindRTS}},
		// A zero or over-bound promised length is rejected at parse time,
		// before any receive buffer is sized from it.
		{name: "rts promising 0 bytes", wire: rts(0)},
		{name: "rts promising maxFrame bytes", wire: rts(maxFrame)},
		{name: "rts promising 2^62 bytes", wire: rts(1 << 62)},
		{name: "rts promising a negative length", wire: rts(neg(-1))},
		{name: "short rdata body", wire: wireOf(kindRData, []uint64{3}, "1234567")},
		{name: "bare rdata kind", wire: []byte{1, 0, 0, 0, kindRData}},
		{name: "bare cts kind", wire: []byte{1, 0, 0, 0, kindCTS}},
		{name: "long cts body", wire: wireOf(kindCTS, []uint64{42}, "x")},
		{name: "short hello body", wire: wireOf(kindHello, nil, "123")},
		{name: "hello path over the bound", wire: wireOf(kindHello, []uint64{1}, strings.Repeat("p", maxShmPath+1))},
		{name: "short abort body", wire: wireOf(kindAbort, []uint64{1}, "")},
		{name: "long abort body", wire: wireOf(kindAbort, []uint64{1, 2, 3}, "")},
	}
	for _, row := range rows {
		_, _, err := decodeAll(row.wire)
		if err == nil || (row.want != nil && err != row.want) || !strings.Contains(fmt.Sprint(err), row.text) {
			t.Errorf("%s: decode error %v, want %v %q", row.name, err, row.want, row.text)
		}
	}
}

// TestFrameTableMatchesDesign pins the frame table in DESIGN.md §12 to the
// one the code runs on: same kinds, names, fixed sizes, tails and carriers.
func TestFrameTableMatchesDesign(t *testing.T) {
	doc, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRE := regexp.MustCompile("(?m)^\\| (\\d+) \\| `(\\w+)` \\| (\\d+)\\b[^|]*\\| ([^|]+) \\| (TCP|TCP, Unix) \\|")
	documented := 0
	for _, m := range rowRE.FindAllStringSubmatch(string(doc), -1) {
		kind, _ := strconv.Atoi(m[1])
		fixed, _ := strconv.Atoi(m[3])
		if kind >= len(frameTable) || frameTable[kind].name == "" {
			t.Errorf("DESIGN.md documents kind %d (%s), which frameTable does not have", kind, m[2])
			continue
		}
		documented++
		spec := frameTable[kind]
		tail := "none"
		switch {
		case spec.maxTail == maxFrame:
			tail = "payload"
		case spec.maxTail > 0:
			tail = fmt.Sprintf("socket path, ≤ %d bytes", spec.maxTail)
		}
		carriers := "TCP"
		if spec.unix {
			carriers = "TCP, Unix"
		}
		if m[2] != spec.name || fixed != spec.fixed || strings.TrimSpace(m[4]) != tail || m[5] != carriers {
			t.Errorf("kind %d: DESIGN.md says %s/%d bytes/%s/%s, frameTable says %s/%d bytes/%s/%s",
				kind, m[2], fixed, strings.TrimSpace(m[4]), m[5], spec.name, spec.fixed, tail, carriers)
		}
	}
	want := 0
	for _, spec := range frameTable {
		if spec.name != "" {
			want++
		}
	}
	if documented != want {
		t.Errorf("DESIGN.md §12 documents %d frame kinds, frameTable has %d", documented, want)
	}
}
