package mpi

import (
	"errors"
	"fmt"
)

// This file is the substrate's fault model: the typed errors that replace
// indefinite blocking when a job degrades, and the sentinel they unwrap to.
//
// Two failure classes exist:
//
//   - Peer loss: one rank of the world is gone (its session with the
//     launcher ended — it exited, crashed or closed — or a send to it spent
//     its dial budget). Operations addressing that rank fail with
//     *ErrPeerLost; traffic among surviving ranks continues.
//   - Abort: the whole job is coming down (Comm.Abort, a launcher-initiated
//     abort, or a failed registration handshake). Every pending and future
//     operation on the rank fails with an *AbortError wrapping ErrAborted.
//
// Both are detected asynchronously by the transport (package tcpnet) and
// injected into the matching engine, which completes the affected posted
// receives with the typed error instead of leaving them parked; the
// transport fails its own blocked senders (rendezvous CTS waits) alike.

// ErrAborted is the sentinel wrapped by every abort-induced failure.
// Test with errors.Is(err, ErrAborted); recover the abort code with
// errors.As and *AbortError.
var ErrAborted = errors.New("mpi: job aborted")

// AbortError is the typed error carried by operations unblocked by a
// job-wide abort. It unwraps to ErrAborted.
type AbortError struct {
	// Code is the abort code passed to Abort (the launcher uses 1 for a
	// child-failure abort).
	Code int
	// Origin is the world rank that initiated the abort, or -1 when the
	// launcher (mphrun) injected it from outside the world.
	Origin int
}

// Error implements the error interface.
func (e *AbortError) Error() string {
	if e.Origin < 0 {
		return fmt.Sprintf("mpi: job aborted by launcher (code %d)", e.Code)
	}
	return fmt.Sprintf("mpi: job aborted by rank %d (code %d)", e.Origin, e.Code)
}

// Unwrap makes errors.Is(err, ErrAborted) hold for every AbortError.
func (e *AbortError) Unwrap() error { return ErrAborted }

// ErrPeerLost is the typed error returned by operations that address a world
// rank the transport has declared dead: in-flight receives posted for the
// rank, future receives naming it, and sends to it. Recover it with
// errors.As; Cause carries the transport-level evidence (the launcher's word
// that the rank's session ended, a dial failure after retries, a write that
// failed twice).
type ErrPeerLost struct {
	// Rank is the lost peer's world rank.
	Rank int
	// Cause is the transport-level failure that triggered the declaration.
	Cause error
}

// Error implements the error interface.
func (e *ErrPeerLost) Error() string {
	if e.Cause == nil {
		return fmt.Sprintf("mpi: peer rank %d lost", e.Rank)
	}
	return fmt.Sprintf("mpi: peer rank %d lost: %v", e.Rank, e.Cause)
}

// Unwrap exposes the transport-level cause to errors.Is/errors.As chains.
func (e *ErrPeerLost) Unwrap() error { return e.Cause }

// IsPeerLost reports whether err wraps an *ErrPeerLost and, if so, which
// rank was lost. It is a convenience over errors.As for callers that only
// need the rank.
func IsPeerLost(err error) (rank int, ok bool) {
	var pl *ErrPeerLost
	if errors.As(err, &pl) {
		return pl.Rank, true
	}
	return 0, false
}
