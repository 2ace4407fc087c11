package mpirun

// The block protocol is the one way a launcher talks to anything that
// spawns ranks for it: line-JSON (LineConn, line.go) over one connection
// per (launcher, host) pair, whatever carries the bytes — a TCP connection
// to a persistent mphd, or the stdio pipes of an "mphrun agent" started
// locally or through ssh.
// The launcher sends blockRequest lines; the server streams blockEvent
// lines back. One connection carries at most one spawned block, and the
// block's ranks never outlive it: EOF — the launcher died, or the network
// or ssh session went with it — kills every process group the connection
// spawned.

// blockRequest is one launcher→server command line.
type blockRequest struct {
	// Op is "ping" (liveness probe), "spawn" (start a block), or "kill".
	Op string `json:"op"`
	// Spawn carries the block for op "spawn".
	Spawn *SpawnBlock `json:"spawn,omitempty"`
	// Rank selects the rank for op "kill"; negative kills the whole block.
	Rank int `json:"rank,omitempty"`
}

// blockEvent is one server→launcher event line. It is also what the block
// runner hands its sink, so a directly spawned block never touches JSON.
type blockEvent struct {
	// Event is "pong", "spawned", "line", "exit", or "error".
	Event string `json:"event"`
	// Rank is the world rank the event concerns (spawned, line, exit).
	Rank int `json:"rank,omitempty"`
	// Pid is the started process id (spawned).
	Pid int `json:"pid,omitempty"`
	// Stream is "stdout" or "stderr" (line).
	Stream string `json:"stream,omitempty"`
	// Text is one output line without its newline (line).
	Text string `json:"text,omitempty"`
	// Code is the exit status (exit); 127 means the rank could not be
	// started, >128 means it died to signal code-128.
	Code int `json:"code,omitempty"`
	// Msg carries diagnostics (exit with a start failure, error).
	Msg string `json:"msg,omitempty"`
}

// SpawnBlock is the wire form of one host-local rank block: the whole
// host's share of the job in a single request, so gang launch costs one
// round trip per host instead of one process creation per rank.
type SpawnBlock struct {
	// Size is the world size.
	Size int `json:"size"`
	// Rendezvous is the launcher's advertised rendezvous address.
	Rendezvous string `json:"rendezvous"`
	// Regdata is the base64 registration-file contents ("" = none); the
	// server materializes it once for the whole block.
	Regdata string `json:"regdata,omitempty"`
	// Host is the placement host label the ranks report as MPH_HOST.
	Host string `json:"host,omitempty"`
	// Bind is the listener bind host for every rank ("" = loopback).
	Bind string `json:"bind,omitempty"`
	// Env entries (KEY=VALUE) are appended to every rank's environment —
	// the launcher's MPH_* passthrough plus the job's ExtraEnv.
	Env []string `json:"env,omitempty"`
	// Ranks are the block's processes.
	Ranks []SpawnRank `json:"ranks"`
}

// SpawnRank is one process of a SpawnBlock.
type SpawnRank struct {
	// Rank is the world rank.
	Rank int `json:"rank"`
	// Argv is the command and its arguments.
	Argv []string `json:"argv"`
	// Env holds extra KEY=VALUE pairs for this rank only.
	Env []string `json:"env,omitempty"`
}
