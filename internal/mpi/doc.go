// Package mpi is a from-scratch message-passing substrate with MPI-like
// semantics, built so that the MPH handshaking algorithms from the paper
// (Ding & He, IPPS 2004) can be implemented exactly as described without a
// native MPI library.
//
// The package keeps only the MPI that MPH and its callers use:
//
//   - a world communicator shared by every rank of a job,
//   - communicators with isolated message contexts,
//   - point-to-point messages matched on (context, source, tag) with
//     non-overtaking order per sender: one send, the blocking receives, and
//     one posted receive (StartRecvInto) completed by Request.Wait or Cancel,
//   - collectives: barrier, broadcast, allreduce,
//   - MPI_Comm_split (color/key) from every member's arguments, without an
//     exchange (SplitWith), and group-based communicator creation.
//
// Two transports exist. The in-process transport (World) runs each rank as a
// goroutine; message payloads are copied on send, so no mutable memory is
// shared across ranks — the distributed-memory discipline is preserved. The
// TCP transport (package tcpnet) runs each executable as a real OS process,
// reproducing a true MPMD launch.
//
// Communicator contexts are derived deterministically (FNV-64 over the
// parent context, a split sequence number, and the color or label), so
// disjoint processes agree on contexts without extra communication.
package mpi
