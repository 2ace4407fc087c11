package mpirun

import (
	"strings"

	"mph/internal/bootstrap"
)

// perRankEnvKeys are the launch variables set per rank by the launcher;
// they must never be forwarded from the launcher's own environment.
var perRankEnvKeys = map[string]bool{
	bootstrap.EnvRank:         true,
	bootstrap.EnvSize:         true,
	bootstrap.EnvRendezvous:   true,
	bootstrap.EnvRegistration: true,
	bootstrap.EnvHost:         true,
	bootstrap.EnvBind:         true,
}

// passthroughEnv filters an environment down to the MPH_* variables worth
// forwarding to remotely spawned ranks: tuning knobs and fault injections must
// reach every rank of the job (collective algorithm selection diverges if
// ranks disagree), but the per-rank launch variables are the launcher's to
// set.
func passthroughEnv(environ []string) []string {
	var out []string
	for _, kv := range environ {
		key, _, ok := strings.Cut(kv, "=")
		if !ok || !strings.HasPrefix(key, "MPH_") || perRankEnvKeys[key] {
			continue
		}
		out = append(out, kv)
	}
	return out
}

// shellJoin renders an argument vector as a single shell command line,
// single-quoting every argument, for execution by the remote shell ssh
// puts between us and the agent.
func shellJoin(argv []string) string {
	quoted := make([]string, len(argv))
	for i, a := range argv {
		quoted[i] = "'" + strings.ReplaceAll(a, "'", `'\''`) + "'"
	}
	return strings.Join(quoted, " ")
}
