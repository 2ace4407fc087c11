package bootstrap

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// TestAbortFrameRoundTrip pins the session's abort record: a rank's abort
// goes up as one record carrying its code, its origin zero (the launcher
// fills in the origin), what the launcher writes for a code and origin is
// what Serve hands its callback, and no other kind of record reaches the
// callback.
func TestAbortFrameRoundTrip(t *testing.T) {
	rank, launcher := net.Pipe()
	defer launcher.Close()
	s := &Session{conn: rank}
	defer s.Close()

	up := make(chan error, 1)
	go func() { up <- s.Abort(7) }()
	record := make([]byte, 4+1+8+8)
	if _, err := io.ReadFull(launcher, record); err != nil {
		t.Fatal(err)
	}
	want := []byte{17, 0, 0, 0, kindAbort, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(record, want) {
		t.Errorf("rank's abort record = % x, want % x", record, want)
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
	for _, c := range cases {
		if err := writeRecord(launcher, msg{Kind: kindPong, Code: 99, Origin: 99}); err != nil {
			t.Fatal(err)
		}
		if err := writeRecord(launcher, msg{Kind: kindAbort, Code: c.code, Origin: c.origin}); err != nil {
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
