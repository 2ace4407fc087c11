package mpirun

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxLineBytes caps one line of the block protocol. It is sized for the
// largest legitimate message — a spawn request carrying a registration file
// by value — so a peer that never sends a newline costs the reader at most
// this much memory.
const MaxLineBytes = 16 << 20

// lineBufBytes is what a LineConn's reader holds for the life of the
// connection. Every message but a spawn request fits it; a longer line
// accumulates up to MaxLineBytes and is then garbage.
const lineBufBytes = 4 << 10

// ErrBadLine marks a received line that cannot be a message: longer than
// MaxLineBytes, or not the expected JSON. I/O errors are returned bare.
var ErrBadLine = errors.New("bad line")

// LineConn is the block protocol's framing (proto.go): newline-delimited
// JSON, reads bounded by MaxLineBytes, writes serialized so concurrent
// senders cannot interleave lines. No rank links it: a rank's session with
// its launcher is binary records (package bootstrap).
type LineConn struct {
	br *bufio.Reader

	wmu sync.Mutex
	enc *json.Encoder // one Write per message, newline included
}

// NewLineConn frames a byte stream.
func NewLineConn(rw io.ReadWriter) *LineConn {
	return &LineConn{br: bufio.NewReaderSize(rw, lineBufBytes), enc: json.NewEncoder(rw)}
}

// Send writes one message as a single line.
func (c *LineConn) Send(msg any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.Encode(msg)
}

// Recv reads the next line into msg. Only one goroutine may receive.
func (c *LineConn) Recv(msg any) error {
	var long []byte // accumulates a line longer than the reader's buffer
	for {
		chunk, err := c.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			if len(long)+len(chunk) > MaxLineBytes {
				return fmt.Errorf("%w: longer than %d bytes", ErrBadLine, MaxLineBytes)
			}
			long = append(long, chunk...)
			continue
		}
		if err != nil {
			return err
		}
		if long != nil {
			chunk = append(long, chunk...)
		}
		if err := json.Unmarshal(chunk, msg); err != nil {
			return fmt.Errorf("%w: %v", ErrBadLine, err)
		}
		return nil
	}
}
