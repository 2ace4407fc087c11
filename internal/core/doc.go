// Package core implements MPH — Multiple Program-component Handshaking
// (Ding & He, IPPS 2004) — the paper's primary contribution.
//
// When an MPMD job starts, all executables share one world communicator and
// nothing else: no executable knows which components run on which ranks.
// MPH performs the initial handshake that turns that anonymous world into a
// registry of named components, each with its own communicator, driven
// entirely by a runtime registration file (see package registry).
//
// The five execution modes of paper §2 are served by one interface:
//
//   - SCSE / SCME / MCSE / MCME: ComponentsSetup, called by every rank with
//     the component names its executable contains (one name for a
//     single-component executable, several for a multi-component one).
//   - MIME (multi-instance ensembles): MultiInstance, called with the
//     common name prefix; the registration file decides how many instances
//     exist and which processors and argument strings each one gets.
//
// After setup every rank holds: a communicator per component it belongs to,
// the global component layout (world ranks of every component), inquiry
// functions (paper §5.3), MPH_comm_join (§5.1), name-addressed
// point-to-point communication (§5.2), per-instance argument access (§4.4),
// and stdout redirection (§5.4).
//
// Handshake algorithm (paper §6): the registration file is read by world
// rank 0 and broadcast; each executable locates its entry by its component
// name set and one allreduce gives every rank the rank → executable table.
// The paper's Comm_splits — the world by executable index, then a single
// split for disjoint component layouts inside an executable or one per
// component for overlapping ones — and the component → world-rank layout
// are then derived locally from that table (mpi.Comm.SplitWith): same
// groups, rank order and contexts, no further messages.
package core
