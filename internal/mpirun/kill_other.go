//go:build !unix

package mpirun

import (
	"errors"
	"os/exec"
)

// setProcGroup is a no-op on platforms without process groups.
func setProcGroup(cmd *exec.Cmd) {}

// killTree terminates the child process (no group semantics available).
func killTree(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}

// exitStatus maps a cmd.Wait error to the exit code an exit event carries.
func exitStatus(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if code := ee.ExitCode(); code >= 0 {
			return code
		}
	}
	return 1
}

// ignoreBrokenPipe is a no-op on platforms without SIGPIPE.
func ignoreBrokenPipe() {}
