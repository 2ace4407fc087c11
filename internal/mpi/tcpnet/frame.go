package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The wire format (DESIGN.md §12) lives in this file and nowhere else. Every
// frame, on either carrier, is
//
//	u32 length | u8 kind | fixed part | tail
//
// little-endian, where length counts the kind byte and everything after it.
// frameTable says what each kind's fixed part is and whether a tail may
// follow; encode and decode are the only code that reads or writes the
// fields. The tail — an eager payload, a rendezvous payload, a hello's socket
// path — is never touched here: its writer sends it as a second iovec and its
// reader reads it straight into the buffer that keeps it.

// frame kinds. Kinds 2 and 4 are unassigned: they were the Ssend release and
// the idle-stream heartbeat, and decode rejects them like any other unknown
// byte.
const (
	kindPacket = 1 // an eager message: envelope, payload tail
	kindHello  = 3 // first frame on every stream: sender's world rank, socket-path tail
	kindAbort  = 5 // job-wide abort: code and origin rank
	kindRTS    = 6 // rendezvous request-to-send: envelope + id + promised length
	kindCTS    = 7 // rendezvous clear-to-send: the id
	kindRData  = 8 // rendezvous payload: sender's world rank + id, payload tail
)

const (
	// prefixLen is the length prefix plus the kind byte.
	prefixLen = 4 + 1
	// packetHdrLen is a packet's fixed part: srcWorld, ctx, src, tag.
	packetHdrLen = 8 + 8 + 8 + 8
	// rtsHdrLen is an RTS's fixed part: srcWorld, ctx, src, tag, rendezvous
	// id, promised payload length. It is the longest fixed part, so it sizes
	// every decode scratch buffer.
	rtsHdrLen = 8 + 8 + 8 + 8 + 8 + 8
	// rdataHdrLen is an RData's fixed part: srcWorld and rendezvous id.
	// srcWorld is carried so a redialed stream needs no prior context.
	rdataHdrLen = 8 + 8
	// maxShmPath bounds the socket path a hello may carry; sockaddr_un caps
	// real ones around 104 bytes.
	maxShmPath = 512
	// maxFrame bounds a frame's length field as a corruption guard.
	maxFrame = 1 << 30
)

// frameSpec is one row of the frame table.
type frameSpec struct {
	name    string // the kind's name in DESIGN.md §12; "" marks an unassigned kind byte
	fixed   int    // bytes every frame of the kind carries after the kind byte
	maxTail int    // most bytes that may follow the fixed part; 0 makes the length exact
	unix    bool   // legal on the intra-host (Unix-socket) carrier as well as on TCP
	hasSrc  bool   // the fixed part opens with the sender's world rank
	fault   string // the MPH_FAULT frame= name of a send of this kind; "" for kinds peer.send never carries
}

// frameTable maps a kind byte to its layout.
var frameTable = [...]frameSpec{
	kindPacket: {name: "packet", fixed: packetHdrLen, maxTail: maxFrame, hasSrc: true, fault: framePacket},
	kindHello:  {name: "hello", fixed: 8, maxTail: maxShmPath, unix: true, hasSrc: true},
	kindAbort:  {name: "abort", fixed: 8 + 8},
	kindRTS:    {name: "rts", fixed: rtsHdrLen, hasSrc: true, fault: frameRTS},
	kindCTS:    {name: "cts", fixed: 8, fault: frameCTS},
	kindRData:  {name: "rdata", fixed: rdataHdrLen, maxTail: maxFrame, unix: true, hasSrc: true, fault: frameData},
}

// frame is the decoded fixed part of one frame; which fields mean anything
// depends on the kind.
type frame struct {
	kind byte
	src  int    // sender's world rank (packet, hello, rts, rdata)
	ctx  uint64 // envelope: communicator context (packet, rts)
	rank int    // envelope: sender's rank in that communicator
	tag  int    // envelope: message tag
	id   uint64 // rendezvous id (rts, cts, rdata)
	plen int    // promised payload length (rts)

	code, origin int // abort
}

// encode appends f's length prefix, kind byte and fixed part to buf; tail is
// the number of bytes the caller will send after them.
func encode(buf []byte, f frame, tail int) []byte {
	spec, le := &frameTable[f.kind], binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(1+spec.fixed+tail))
	buf = append(buf, f.kind)
	if spec.hasSrc {
		buf = le.AppendUint64(buf, uint64(int64(f.src)))
	}
	switch f.kind {
	case kindPacket, kindRTS:
		buf = le.AppendUint64(buf, f.ctx)
		buf = le.AppendUint64(buf, uint64(int64(f.rank)))
		buf = le.AppendUint64(buf, uint64(int64(f.tag)))
		if f.kind == kindRTS {
			buf = le.AppendUint64(buf, f.id)
			buf = le.AppendUint64(buf, uint64(f.plen))
		}
	case kindCTS, kindRData:
		buf = le.AppendUint64(buf, f.id)
	case kindAbort:
		buf = le.AppendUint64(buf, uint64(int64(f.code)))
		buf = le.AppendUint64(buf, uint64(int64(f.origin)))
	}
	return buf
}

// helloFrame is the introduction that opens every outbound stream: the
// sender's world rank and, to a same-host peer over TCP, the path of its
// intra-host payload listener (empty otherwise).
func helloFrame(rank int, shmPath string) []byte {
	return append(encode(nil, frame{kind: kindHello, src: rank}, len(shmPath)), shmPath...)
}

// decode reads one frame's prefix and fixed part from r through scratch
// (at least prefixLen+rtsHdrLen bytes), checks the length against the
// frame table, and returns the fields with the number of tail bytes still
// unread on r. It allocates nothing on success; the tail is the caller's to
// read, into a buffer it sizes only after deciding the frame is wanted.
func decode(r io.Reader, scratch []byte) (f frame, tail int, err error) {
	if _, err = io.ReadFull(r, scratch[:prefixLen]); err != nil {
		return f, 0, err
	}
	le := binary.LittleEndian
	n := le.Uint32(scratch)
	f.kind = scratch[4]
	if n == 0 || n > maxFrame {
		return f, 0, fmt.Errorf("tcpnet: bad frame length %d", n)
	}
	if int(f.kind) >= len(frameTable) || frameTable[f.kind].name == "" {
		return f, 0, fmt.Errorf("tcpnet: unknown frame kind %d", f.kind)
	}
	spec := &frameTable[f.kind]
	if tail = int(n) - 1 - spec.fixed; tail < 0 || tail > spec.maxTail {
		return f, 0, fmt.Errorf("tcpnet: bad %s frame length %d", spec.name, n-1)
	}
	b := scratch[prefixLen : prefixLen+spec.fixed]
	if _, err = io.ReadFull(r, b); err != nil {
		return f, 0, err
	}
	if spec.hasSrc {
		f.src, b = int(int64(le.Uint64(b))), b[8:]
	}
	switch f.kind {
	case kindPacket, kindRTS:
		f.ctx = le.Uint64(b)
		f.rank = int(int64(le.Uint64(b[8:])))
		f.tag = int(int64(le.Uint64(b[16:])))
		if f.kind == kindRTS {
			f.id = le.Uint64(b[24:])
			// Checked against the bound the payload's own data frame must
			// meet, before any receive buffer is sized from it.
			plen := int64(le.Uint64(b[32:]))
			if plen <= 0 || plen > maxFrame-1-rdataHdrLen {
				return f, 0, fmt.Errorf("tcpnet: bad rts payload length %d", plen)
			}
			f.plen = int(plen)
		}
	case kindCTS, kindRData:
		f.id = le.Uint64(b)
	case kindAbort:
		f.code = int(int64(le.Uint64(b)))
		f.origin = int(int64(le.Uint64(b[8:])))
	}
	return f, tail, nil
}
