package iolog

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestComponentWriterCreatesLogFile(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.ComponentWriter("atmosphere")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w, "step 1 done")
	data, err := os.ReadFile(filepath.Join(dir, "atmosphere.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "step 1 done\n" {
		t.Errorf("log content %q", data)
	}
}

func TestSameWriterForRepeatedCalls(t *testing.T) {
	m, err := NewMux(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := m.ComponentWriter("ocean")
	w2, _ := m.ComponentWriter("ocean")
	if w1 != w2 {
		t.Error("repeated ComponentWriter calls returned different writers")
	}
}

func TestCombinedWriterShared(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := m.CombinedWriter()
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := m.CombinedWriter()
	if w1 != w2 {
		t.Error("combined writer not shared")
	}
	fmt.Fprintln(w1, "stray write")
	data, err := os.ReadFile(filepath.Join(dir, CombinedName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "stray write") {
		t.Errorf("combined content %q", data)
	}
}

func TestConcurrentWritesAreAtomic(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.ComponentWriter("ice")
	if err != nil {
		t.Fatal(err)
	}
	const writers, lines = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < lines; j++ {
				fmt.Fprintf(w, "writer=%d line=%d\n", id, j)
			}
		}(i)
	}
	wg.Wait()
	data, err := os.ReadFile(filepath.Join(dir, "ice.log"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(got) != writers*lines {
		t.Fatalf("got %d lines, want %d", len(got), writers*lines)
	}
	for _, line := range got {
		if !strings.HasPrefix(line, "writer=") || !strings.Contains(line, " line=") {
			t.Fatalf("interleaved line %q", line)
		}
	}
}

func TestEnvVarMapping(t *testing.T) {
	cases := map[string]string{
		"ocean":    "MPH_LOG_OCEAN",
		"Ocean1":   "MPH_LOG_OCEAN1",
		"sea-ice":  "MPH_LOG_SEA_ICE",
		"a.b c/d":  "MPH_LOG_A_B_C_D",
		"NCAR_atm": "MPH_LOG_NCAR_ATM",
	}
	for name, want := range cases {
		if got := EnvVar(name); got != want {
			t.Errorf("EnvVar(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestEnvVarOverridesPath(t *testing.T) {
	dir := t.TempDir()
	override := filepath.Join(dir, "custom-ocean-log.txt")
	t.Setenv(EnvVar("ocean"), override)
	m, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.ComponentWriter("ocean")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w, "overridden")
	if _, err := os.Stat(override); err != nil {
		t.Fatalf("override path not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ocean.log")); !os.IsNotExist(err) {
		t.Error("default path written despite override")
	}
}

func TestEmptyComponentName(t *testing.T) {
	m, err := NewMux(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ComponentWriter(""); err == nil {
		t.Error("empty component name accepted")
	}
}

func TestNewMuxUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(parent, 0o755)
	if _, err := NewMux(filepath.Join(parent, "sub")); err == nil {
		t.Error("unwritable parent accepted")
	}
}

func TestComponentWriterOpenFailure(t *testing.T) {
	dir := t.TempDir()
	m, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Point the env override at a path whose parent does not exist.
	t.Setenv(EnvVar("ghost"), filepath.Join(dir, "missing", "ghost.log"))
	if _, err := m.ComponentWriter("ghost"); err == nil {
		t.Error("unopenable override accepted")
	}
}

func TestSharedMuxReuse(t *testing.T) {
	dir := t.TempDir()
	a, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Shared returned distinct muxes for one directory")
	}
	other, err := Shared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("Shared reused a mux across directories")
	}
	// Default dir resolves without error.
	if _, err := Shared(""); err != nil {
		t.Errorf("Shared(\"\"): %v", err)
	}
}

func TestSharedMuxAppendAcrossHandles(t *testing.T) {
	// Two muxes on one directory (as two OS processes would have) append
	// rather than clobber.
	dir := t.TempDir()
	m1, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := m1.ComponentWriter("x")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w1, "first")
	m2, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := m2.ComponentWriter("x")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w2, "second")
	data, err := os.ReadFile(filepath.Join(dir, "x.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "first\nsecond\n" {
		t.Errorf("content %q", data)
	}
}

func TestEnvVarOverrideNonAlphanumericName(t *testing.T) {
	// Regression: components whose names contain '-', '.', etc. must map to
	// the sanitized MPH_LOG_* variable, and the override must take effect.
	const name = "ocean-v2.1"
	if got := EnvVar(name); got != "MPH_LOG_OCEAN_V2_1" {
		t.Fatalf("EnvVar(%q) = %q, want MPH_LOG_OCEAN_V2_1", name, got)
	}
	dir := t.TempDir()
	override := filepath.Join(dir, "redirected.txt")
	t.Setenv("MPH_LOG_OCEAN_V2_1", override)
	m, err := NewMux(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.ComponentWriter(name)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w, "hello")
	data, err := os.ReadFile(override)
	if err != nil {
		t.Fatalf("override path not written: %v", err)
	}
	if string(data) != "hello\n" {
		t.Errorf("override content %q", data)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".log")); !os.IsNotExist(err) {
		t.Error("default path written despite override")
	}
}

// BenchmarkRedirect (EXPERIMENTS.md E9) measures the serialized
// per-component log writer (§5.4) under concurrent writers; b.N lines are
// split between them.
func BenchmarkRedirect(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			mux, err := NewMux(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			w, err := mux.ComponentWriter("bench")
			if err != nil {
				b.Fatal(err)
			}
			line := []byte("component step report: all fields nominal\n")
			b.SetBytes(int64(len(line)))
			b.ResetTimer()
			var wg sync.WaitGroup
			for k := 0; k < writers; k++ {
				wg.Add(1)
				go func(lines int) {
					defer wg.Done()
					for i := 0; i < lines; i++ {
						if _, err := w.Write(line); err != nil {
							b.Error(err)
							return
						}
					}
				}((b.N + k) / writers)
			}
			wg.Wait()
		})
	}
}
