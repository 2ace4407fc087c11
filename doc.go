// Package mph is the root of a Go reproduction of "Integrating Program
// Component Executables on Distributed Memory Architectures via MPH"
// (Chris Ding and Yun He, LBNL, IPPS 2004).
//
// The paper's MPH library lets independently developed climate-model
// components — each its own executable with its own MPI world view — run as
// one distributed job: a registration file names the components, a
// collective handshake carves the job's world communicator into component
// communicators, and from then on components address each other by name
// rather than by rank arithmetic. This repository rebuilds that stack in Go
// on top of its own MPI-like substrate, so every layer the paper assumes
// (the MPI library, the vendor MPMD launcher, the performance tools) is in
// the tree and testable.
//
// # Layout
//
// The implementation lives under internal/:
//
//   - internal/mpi — a from-scratch MPI-like message-passing substrate:
//     communicators, point-to-point (eager and rendezvous), collectives,
//     Comm_split/Dup, a two-queue matching engine (UMQ/PRQ), typed failure
//     semantics (ErrPeerLost, ErrAborted, Comm.Abort), an in-process
//     transport for tests and an inter-process TCP transport
//     (internal/mpi/tcpnet) with dial retry, peer death taken from the
//     launcher's session, abort frames, and deterministic fault injection.
//   - internal/mpi/perf — the MPI_T-style tool layer: per-rank performance
//     variables and an event tracer.
//   - internal/registry — the processors_map.in registration file.
//   - internal/core — MPH itself: component handshaking for all five
//     execution modes, comm join, name-addressed messaging, inquiry,
//     per-instance arguments, output redirection. A transport failure
//     inside the handshake escalates to a job-wide abort so no rank is
//     left blocked in a collective.
//   - internal/{grid,xfer,model,coupler,ensemble,iolog} — the substrates a
//     CCSM-style application needs: grids, M-to-N redistribution, toy
//     climate components, a flux coupler, ensemble statistics, log
//     multiplexing.
//   - internal/mpirun + cmd/mphrun — the MPMD launcher and rendezvous.
//     The launcher watches child exit status, broadcasts an abort to
//     surviving ranks when one fails, kills process groups after a grace
//     period, and reports failures per component. A rank's session is its
//     one control channel: mphrun -http asks it for its goroutine stacks.
//
// # Tooling
//
// cmd/ holds the executables: mphrun (the launcher), mphtrace (merges
// per-rank event traces into Chrome trace_event JSON) and mphinfo (the
// registration-file linter). Every experiment indexed in EXPERIMENTS.md is
// one Benchmark function beside the code it measures (go test -bench); the
// end-to-end benchmark is benchmark/. Runnable applications live under examples/, cmd/.
//
// # Further reading
//
// DESIGN.md records the architecture and its deviations from the paper —
// §9 specifies the failure semantics. OPERATIONS.md is the operator's
// guide: failure modes, tuning knobs, exit codes, and how to diagnose a
// wedged or aborted job. EXPERIMENTS.md indexes the reproduced results.
package mph
