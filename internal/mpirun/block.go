package mpirun

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"

	"mph/internal/bootstrap"
)

// blockRun is one running rank block: every rank a process-group child of
// this process, its output and fate reported to the sink as blockEvents. It
// is the only fork/relay/reap/kill code in the launcher: the local spawner
// runs it in the launcher itself, a served connection runs it wherever the
// server lives.
type blockRun struct {
	emit     func(blockEvent)
	children map[int]*blockChild
	wg       sync.WaitGroup
}

// blockChild is one started rank.
type blockChild struct {
	cmd      *exec.Cmd
	killOnce sync.Once
}

// startBlock spawns every rank of the block and returns once all have been
// started. Events reach emit from several goroutines; each rank ends in
// exactly one exit event. A rank that cannot be started exits with code 127
// instead of failing the block. registration is the registration-file path
// on this host ("" = none).
func startBlock(b *SpawnBlock, registration string, emit func(blockEvent)) *blockRun {
	r := &blockRun{emit: emit, children: make(map[int]*blockChild, len(b.Ranks))}
	for _, rk := range b.Ranks {
		if msg := r.startRank(b, rk, registration); msg != "" {
			emit(blockEvent{Kind: kindExit, Rank: rk.Rank, Code: 127, Text: msg})
		}
	}
	return r
}

// startRank starts one rank in its own process group with its output
// relayed and a reaper waiting; it returns the reason when it cannot.
func (r *blockRun) startRank(b *SpawnBlock, rk SpawnRank, registration string) string {
	if len(rk.Argv) == 0 {
		return "no command"
	}
	env := bootstrap.Env{
		Rank:         rk.Rank,
		Size:         b.Size,
		Rendezvous:   b.Rendezvous,
		Registration: registration,
		Host:         b.Host,
		Bind:         b.Bind,
	}
	cmd := exec.Command(rk.Argv[0], rk.Argv[1:]...)
	cmd.Env = dedupEnv(append(append(append(os.Environ(),
		env.Environ()...), b.Env...), rk.Env...))
	stdout, stderr, err := outputPipes(cmd)
	if err != nil {
		return err.Error()
	}
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		return fmt.Sprintf("start %q: %v", strings.Join(rk.Argv, " "), err)
	}
	r.children[rk.Rank] = &blockChild{cmd: cmd}
	r.emit(blockEvent{Kind: kindSpawned, Rank: rk.Rank, Pid: cmd.Process.Pid})

	var pipes sync.WaitGroup
	pipes.Add(2)
	relay := func(stderr bool, src io.Reader) {
		defer pipes.Done()
		relayLines(src, func(line []byte) {
			r.emit(blockEvent{Kind: kindLine, Rank: rk.Rank, Stderr: stderr, Text: string(line)})
		})
	}
	go relay(false, stdout)
	go relay(true, stderr)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		// The pipes EOF when the process group's writers are gone; Wait must
		// not run (and close them) before the readers drain.
		pipes.Wait()
		r.emit(blockEvent{Kind: kindExit, Rank: rk.Rank, Code: exitStatus(cmd.Wait())})
	}()
	return ""
}

// outputPipes opens the command's stdout and stderr pipes, or neither: exec
// closes a pipe's ends only in Start and Wait, and a command whose second
// pipe failed is never started.
func outputPipes(cmd *exec.Cmd) (stdout, stderr io.ReadCloser, err error) {
	if stdout, err = cmd.StdoutPipe(); err != nil {
		return nil, nil, err
	}
	if stderr, err = cmd.StderrPipe(); err != nil {
		stdout.Close()
		cmd.Stdout.(io.Closer).Close() // the write end StdoutPipe installed
		return nil, nil, err
	}
	return stdout, stderr, nil
}

// kill terminates one rank's process group, or every rank's when rank is
// negative. Idempotent; call only after startBlock has returned.
func (r *blockRun) kill(rank int) {
	for rk, c := range r.children {
		if rank < 0 || rk == rank {
			c.killOnce.Do(func() { killTree(c.cmd) })
		}
	}
}

// wait blocks until every started rank's exit event has been emitted.
func (r *blockRun) wait() { r.wg.Wait() }

// relayBufSize is the relay's line cap: lines up to this length are emitted
// intact; longer ones degrade to chunks of this size.
const relayBufSize = 1 << 20

// relayLines reads a child stream and emits it line by line, newline (and a
// preceding carriage return) stripped. It reads through a small buffer and
// accumulates only a line that outgrows it, so an idle stream costs a few
// KiB, not the cap. A line longer than relayBufSize is emitted as several
// chunks rather than truncating the stream — the oversized lines are the
// panic traces and log records that most need relaying. Read errors other
// than EOF and the closed-pipe teardown race are reported to stderr so a
// dying pipe is visible instead of looking like a quiet child. The emitted
// slice is only valid during the call.
func relayLines(src io.Reader, emit func(line []byte)) {
	br := bufio.NewReaderSize(src, 4<<10)
	var long []byte // the line so far, when it is longer than br's buffer
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) && len(long)+len(line) < relayBufSize {
			long = append(long, line...)
			continue
		}
		if len(long) > 0 {
			line = append(long, line...)
			long = long[:0]
		}
		if len(line) > 0 {
			if n := len(line); line[n-1] == '\n' {
				line = line[:n-1]
				if m := len(line); m > 0 && line[m-1] == '\r' {
					line = line[:m-1]
				}
			}
			emit(line)
		}
		switch {
		case err == nil, errors.Is(err, bufio.ErrBufferFull):
			// ErrBufferFull: a cap-sized chunk was just emitted; keep
			// draining the rest of the same line.
		case errors.Is(err, io.EOF), errors.Is(err, os.ErrClosed), errors.Is(err, io.ErrClosedPipe):
			return
		default:
			fmt.Fprintf(os.Stderr, "mphrun: output relay failed: %v\n", err)
			return
		}
	}
}

// materializeRegistration writes registration contents shipped by value to
// a temp file, returning its path and a cleanup func.
func materializeRegistration(data string) (string, func(), error) {
	f, err := os.CreateTemp("", "mph-registration-*")
	if err != nil {
		return "", nil, err
	}
	if _, err := f.WriteString(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", nil, err
	}
	return f.Name(), func() { os.Remove(f.Name()) }, nil
}
