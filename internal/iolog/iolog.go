// Package iolog implements MPH's multi-channel output redirection (paper
// §5.4). In a five-component job, every component printing to the launching
// terminal produces an undecipherable interleaving; MPH instead routes the
// designated writer of each component (its local processor 0) to a
// "<component>.log" file and funnels all other occasional writes into one
// combined stream.
//
// Log file names may be overridden "by run time environment variables"
// (paper §5.4): setting MPH_LOG_<NAME> (component name upper-cased,
// non-alphanumerics replaced by '_') redirects that component's log to the
// given path.
//
// Nothing is ever closed: every channel is an O_APPEND file whose Writes are
// each one write(2), with nothing buffered in the process, so a rank that
// exits loses no output, and a Mux lives as long as its process.
package iolog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// CombinedName is the file that collects writes from processors that are
// not a component's designated logger.
const CombinedName = "combined.out"

// Mux multiplexes component output channels. It is safe for concurrent use
// by many ranks of an in-process world; writes to one channel are atomic
// with respect to each other.
type Mux struct {
	dir string

	mu       sync.Mutex
	files    map[string]*os.File  // canonical path -> open file
	writers  map[string]io.Writer // component name -> serialized writer
	combined io.Writer
}

// NewMux creates a multiplexer writing its files under dir (created if
// missing).
func NewMux(dir string) (*Mux, error) {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("iolog: %w", err)
	}
	return &Mux{
		dir:     dir,
		files:   make(map[string]*os.File),
		writers: make(map[string]io.Writer),
	}, nil
}

// EnvVar returns the environment variable consulted for a component's log
// path override.
func EnvVar(component string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z':
			return r - 'a' + 'A'
		case r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, component)
	return "MPH_LOG_" + mapped
}

// logPath resolves the file path for a component's log channel.
func (m *Mux) logPath(component string) string {
	if p := os.Getenv(EnvVar(component)); p != "" {
		return p
	}
	return filepath.Join(m.dir, component+".log")
}

// ComponentWriter returns the writer for a component's log channel, opening
// (and truncating) the backing file on first use. Repeated calls return the
// same serialized writer.
func (m *Mux) ComponentWriter(component string) (io.Writer, error) {
	if component == "" {
		return nil, fmt.Errorf("iolog: empty component name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := m.writers[component]; ok {
		return w, nil
	}
	f, err := m.openLocked(m.logPath(component))
	if err != nil {
		return nil, err
	}
	w := &serialWriter{w: f}
	m.writers[component] = w
	return w, nil
}

// CombinedWriter returns the shared writer for non-designated processors.
func (m *Mux) CombinedWriter() (io.Writer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.combined == nil {
		f, err := m.openLocked(filepath.Join(m.dir, CombinedName))
		if err != nil {
			return nil, err
		}
		m.combined = &serialWriter{w: f}
	}
	return m.combined, nil
}

// openLocked opens path once; two components overridden to the same path
// share the file handle. Files are opened in append mode so that several
// OS processes of an MPMD job can share the combined stream, mirroring the
// "log mode" buffered-append behaviour the paper relies on (§5.4). Caller
// holds m.mu.
func (m *Mux) openLocked(path string) (*os.File, error) {
	if f, ok := m.files[path]; ok {
		return f, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("iolog: %w", err)
	}
	m.files[path] = f
	return f, nil
}

// serialWriter makes a writer safe for concurrent use, with each Write
// atomic.
type serialWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *serialWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Process-shared multiplexers: the ranks of an in-process world live in one
// OS process, so they must share one Mux per directory or their writes
// would race on separate handles to the same files.
var (
	sharedMu  sync.Mutex
	sharedMux = make(map[string]*Mux)
)

// Shared returns the process-wide Mux for dir, creating it on first use.
func Shared(dir string) (*Mux, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("iolog: %w", err)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if m, ok := sharedMux[abs]; ok {
		return m, nil
	}
	m, err := NewMux(abs)
	if err != nil {
		return nil, err
	}
	sharedMux[abs] = m
	return m, nil
}
