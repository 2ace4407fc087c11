package core

import (
	"fmt"
	"io"

	"mph/internal/iolog"
)

// RedirectOutput is MPH_redirect_output (paper §5.4): it returns the writer
// this rank should print to. The designated logger of the component — its
// local processor 0 — gets the "<component>.log" channel; every other
// processor gets the combined output file. The calling rank must belong to
// the component.
func (s *Setup) RedirectOutput(component string) (io.Writer, error) {
	comm, ok := s.comms[component]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotMember, component)
	}
	mux, err := s.logMux()
	if err != nil {
		return nil, err
	}
	if comm.Rank() == 0 {
		return mux.ComponentWriter(component)
	}
	return mux.CombinedWriter()
}

// Logger wraps RedirectOutput in a Logger whose prefix identifies the
// component and local processor.
func (s *Setup) Logger(component string) (*Logger, error) {
	w, err := s.RedirectOutput(component)
	if err != nil {
		return nil, err
	}
	comm := s.comms[component]
	return &Logger{w: w, prefix: fmt.Sprintf("[%s %d] ", component, comm.Rank())}, nil
}

// Logger writes prefixed lines to a component's output: the bytes of a
// log.Logger with no flags, without linking package log into a rank. It
// holds no state a call changes, so it is as safe for concurrent use as its
// writer (RedirectOutput's are).
type Logger struct {
	w      io.Writer
	prefix string
}

// Printf writes the prefix and the message, with a newline added when it
// has none, in one Write.
func (l *Logger) Printf(format string, args ...any) {
	b := fmt.Appendf([]byte(l.prefix), format, args...)
	if len(b) == len(l.prefix) || b[len(b)-1] != '\n' {
		b = append(b, '\n')
	}
	l.w.Write(b) //nolint:errcheck // log.Logger.Printf drops the error too
}

// logMux lazily attaches the process-shared multiplexer for the current
// directory when no WithLogDir option was given.
func (s *Setup) logMux() (*iolog.Mux, error) {
	if s.mux == nil {
		mux, err := iolog.Shared(".")
		if err != nil {
			return nil, err
		}
		s.mux = mux
	}
	return s.mux, nil
}
