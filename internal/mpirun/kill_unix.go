package mpirun

import (
	"errors"
	"os/exec"
	"os/signal"
	"syscall"
)

// setProcGroup places a child in its own process group before it starts, so
// the launcher (or its remote agent) can later terminate the whole tree —
// the component may have forked helpers that would otherwise survive it.
func setProcGroup(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
}

// killTree terminates the child's whole process group, falling back to the
// single process when the group signal fails.
func killTree(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL); err != nil {
		_ = cmd.Process.Kill()
	}
}

// exitStatus maps a cmd.Wait error to the exit code an exit event carries:
// the child's own code, 128+signal when it died to a signal (the shell
// convention, so the launcher's report names the signal), or 1 for other
// failures.
func exitStatus(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return 128 + int(ws.Signal())
		}
		if code := ee.ExitCode(); code >= 0 {
			return code
		}
	}
	return 1
}

// ignoreBrokenPipe makes writing to a launcher that hung up fail with EPIPE
// instead of killing the process: Go raises SIGPIPE for a broken write to
// fd 1 or 2, and an agent killed on its way to its kill lease would orphan
// the block it spawned.
func ignoreBrokenPipe() { signal.Ignore(syscall.SIGPIPE) }
