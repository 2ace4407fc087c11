package bootstrap

import (
	"bufio"
	"net"
	"testing"
)

// TestAbortFrameRoundTrip pins the session's abort message: a rank's abort
// goes up as one line carrying its code alone (the launcher fills in the
// origin), what the launcher writes for a code and origin is what Serve hands
// its callback, and no other kind of line reaches the callback.
func TestAbortFrameRoundTrip(t *testing.T) {
	rank, launcher := net.Pipe()
	defer launcher.Close()
	s := &Session{conn: rank, lc: NewLineConn(rank)}
	defer s.Close()

	up := make(chan error, 1)
	go func() { up <- s.Abort(7) }()
	line, err := bufio.NewReader(launcher).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"kind":"abort","code":7}` + "\n"; line != want {
		t.Errorf("rank's abort line = %q, want %q", line, want)
	}
	if err := <-up; err != nil {
		t.Fatal(err)
	}

	type abort struct{ code, origin int }
	cases := []abort{{1, AbortOriginLauncher}, {0, 0}, {-7, 12}, {1 << 40, 3}}
	got := make(chan abort, 2*len(cases)) // room for every line sent
	served := make(chan struct{})
	go func() {
		s.Serve(func(code, origin int) { got <- abort{code, origin} }, func(int, bool) {})
		close(served)
	}()
	lc := NewLineConn(launcher)
	for _, c := range cases {
		if err := lc.Send(msg{Kind: "pong", Code: 99, Origin: 99}); err != nil {
			t.Fatal(err)
		}
		if err := lc.Send(msg{Kind: "abort", Code: c.code, Origin: c.origin}); err != nil {
			t.Fatal(err)
		}
	}
	launcher.Close()
	<-served
	close(got)
	var seen []abort
	for a := range got {
		seen = append(seen, a)
	}
	if len(seen) != len(cases) {
		t.Fatalf("Serve delivered %v, want %v", seen, cases)
	}
	for i, c := range cases {
		if seen[i] != c {
			t.Errorf("abort %d delivered as %+v, want %+v", i, seen[i], c)
		}
	}
}
