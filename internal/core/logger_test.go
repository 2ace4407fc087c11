package core

import (
	"bytes"
	"log"
	"testing"
)

// recorder keeps each Write as its own record.
type recorder struct{ writes []string }

func (r *recorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, string(p))
	return len(p), nil
}

// TestLoggerMatchesLog: Printf writes the bytes of a log.Logger with no
// flags, one Write a call.
func TestLoggerMatchesLog(t *testing.T) {
	var got recorder
	var want bytes.Buffer
	l, ref := &Logger{w: &got, prefix: "[ice 0] "}, log.New(&want, "[ice 0] ", 0)
	calls := []struct {
		format string
		args   []any
	}{
		{"thickness ok", nil},
		{"%-6d %10.3f", []any{3, 1.5}},
		{"ends in a newline\n", nil},
		{"", nil},
		{"%s", []any{"two\n\n"}},
		{"%d%%", []any{42}},
	}
	for _, c := range calls {
		l.Printf(c.format, c.args...)
		ref.Printf(c.format, c.args...)
	}
	if len(got.writes) != len(calls) {
		t.Fatalf("%d writes for %d calls", len(got.writes), len(calls))
	}
	var all string
	for _, w := range got.writes {
		all += w
	}
	if all != want.String() {
		t.Fatalf("Logger wrote %q, log.Logger %q", all, want.String())
	}
}
