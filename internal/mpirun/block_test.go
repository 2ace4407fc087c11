package mpirun

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// relayTo pushes src through the line relay the way a block handle prints
// it: every emitted line prefixed and newline-terminated.
func relayTo(out *bytes.Buffer, src io.Reader, prefix string) {
	relayLines(src, func(line []byte) { fmt.Fprintf(out, "%s%s\n", prefix, line) })
}

// runRelay pushes input through the relay and returns everything it wrote.
func runRelay(t *testing.T, input string, prefix string) string {
	t.Helper()
	var out bytes.Buffer
	relayTo(&out, strings.NewReader(input), prefix)
	return out.String()
}

// TestRelayPrefixesLines covers the ordinary path: every line gains the rank
// prefix, CRLF endings are normalized, and a final unterminated line is
// still delivered.
func TestRelayPrefixesLines(t *testing.T) {
	got := runRelay(t, "alpha\nbeta\r\ntail", "[rank 3] ")
	want := "[rank 3] alpha\n[rank 3] beta\n[rank 3] tail\n"
	if got != want {
		t.Fatalf("relay output %q, want %q", got, want)
	}
}

// TestRelayOversizedLine is the truncation regression test: a line well past
// the relay buffer must come through in full — as several prefixed chunks —
// and the stream must keep relaying afterwards. The Scanner-based relay this
// pins against stopped dead at the oversized line and silently dropped it
// and every line after it.
func TestRelayOversizedLine(t *testing.T) {
	const prefix = "[rank 0] "
	big := strings.Repeat("a", 3<<20) // 3 MiB, three times the relay buffer
	got := runRelay(t, big+"\nshort\n", prefix)

	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("oversized line relayed as %d line(s), want >= 3 chunks plus the trailing short line", len(lines))
	}
	if last := lines[len(lines)-1]; last != prefix+"short" {
		t.Fatalf("line after the oversized one came through as %q, want %q", last, prefix+"short")
	}
	var rebuilt strings.Builder
	for _, ln := range lines[:len(lines)-1] {
		chunk, ok := strings.CutPrefix(ln, prefix)
		if !ok {
			t.Fatalf("relayed chunk missing rank prefix: %.40q", ln)
		}
		rebuilt.WriteString(chunk)
	}
	if rebuilt.String() != big {
		t.Fatalf("oversized line truncated: relayed %d of %d bytes", rebuilt.Len(), len(big))
	}
}

// TestRelayEmptyStream must write nothing, not an empty prefixed line.
func TestRelayEmptyStream(t *testing.T) {
	if got := runRelay(t, "", "[rank 1] "); got != "" {
		t.Fatalf("relay of empty stream produced %q", got)
	}
}

// closingReader yields its payload, then fails with os.ErrClosed — the
// teardown race a child pipe hits when cmd.Wait closes it under the relay.
type closingReader struct{ r io.Reader }

func (c *closingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		err = os.ErrClosed
	}
	return n, err
}

// TestRelayStopsOnClosedPipe pins that a mid-stream pipe closure terminates
// the relay after delivering what was buffered, rather than spinning or
// dropping the partial line.
func TestRelayStopsOnClosedPipe(t *testing.T) {
	var out bytes.Buffer
	done := make(chan struct{})
	go func() {
		relayTo(&out, &closingReader{strings.NewReader("last words")}, "[rank 2] ")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("relay did not return after the pipe closed")
	}
	if got, want := out.String(), "[rank 2] last words\n"; got != want {
		t.Fatalf("relay output %q, want %q", got, want)
	}
}

// TestRelayIdleStreamsAllocation pins the relay's footprint: a stream costs
// its small read buffer until a line actually outgrows it. Sixteen quiet
// ranks are 32 streams on a launcher; when each relay allocated its 1 MiB
// line cap up front, 16 streams were 16 MiB of garbage made in the middle of
// the fork loop.
func TestRelayIdleStreamsAllocation(t *testing.T) {
	const streams = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seen := make(chan struct{}, streams)
	var writers []*io.PipeWriter
	for i := 0; i < streams; i++ {
		pr, pw := io.Pipe()
		writers = append(writers, pw)
		go relayLines(pr, func([]byte) { seen <- struct{}{} })
	}
	for _, pw := range writers {
		if _, err := pw.Write([]byte("hello\n")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < streams; i++ {
		<-seen
	}
	runtime.ReadMemStats(&after)
	for _, pw := range writers {
		pw.Close()
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("%d idle relay streams allocated %d bytes, want < 2 MiB", streams, got)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestOutputPipesFailureLeaksNothing is the regression test for the
// half-opened command: when the stderr pipe cannot be made after the stdout
// pipe was, the command is never started, so nothing but outputPipes can
// close the stdout pipe's two ends.
func TestOutputPipesFailureLeaksNothing(t *testing.T) {
	before := openFDs(t)
	for i := 0; i < 8; i++ {
		cmd := exec.Command("/bin/true")
		cmd.Stderr = io.Discard // makes StderrPipe fail: "Stderr already set"
		if _, _, err := outputPipes(cmd); err == nil {
			t.Fatal("outputPipes succeeded with Stderr already set")
		}
	}
	if after := openFDs(t); after != before {
		t.Fatalf("open fds %d -> %d: a failed outputPipes leaked the stdout pipe", before, after)
	}
}
