package bootstrap

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// The launcher speaks one frame of the transport's control protocol: the
// job-wide abort. The frame layout (little-endian u32 length prefix, one
// kind byte, payload) and the abort kind byte are shared with
// internal/mpi/tcpnet, whose frame table points at AbortFrameKind and
// ParseAbort; encoder and decoder live in this leaf package so the launcher
// can reach surviving ranks without importing the transport, the transport
// can sign its own aborts without importing the launcher, and the abort
// body's layout has one owner.
const (
	// AbortFrameKind is the transport frame-kind byte of a job-wide abort.
	AbortFrameKind = 5
	// AbortOriginLauncher is the origin rank the launcher signs its aborts
	// with; real ranks use their own world rank.
	AbortOriginLauncher = -1
)

// AbortFrame encodes a job-wide abort notice: i64 code, i64 origin rank
// (AbortOriginLauncher for the launcher).
func AbortFrame(code, origin int) []byte {
	b := make([]byte, 5+16)
	binary.LittleEndian.PutUint32(b, 1+16)
	b[4] = AbortFrameKind
	binary.LittleEndian.PutUint64(b[5:], uint64(int64(code)))
	binary.LittleEndian.PutUint64(b[13:], uint64(int64(origin)))
	return b
}

// ParseAbort decodes the body of an abort frame — what follows the length
// prefix and kind byte of AbortFrame's output.
func ParseAbort(body []byte) (code, origin int, err error) {
	if len(body) != 16 {
		return 0, 0, fmt.Errorf("bootstrap: abort frame body is %d bytes, want 16", len(body))
	}
	code = int(int64(binary.LittleEndian.Uint64(body)))
	origin = int(int64(binary.LittleEndian.Uint64(body[8:])))
	return code, origin, nil
}

// SendAbort dials a rank's listener and delivers a single abort frame,
// telling that rank the job is over. The launcher uses it to take surviving
// ranks down — on any host — when a child exits abnormally.
func SendAbort(addr string, code, origin int, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(AbortFrame(code, origin)); err != nil {
		return fmt.Errorf("bootstrap: send abort: %w", err)
	}
	return nil
}
