package sock

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// pair returns both ends of one connection over a fresh listener.
func pair(t *testing.T, network, addr string) (ln *Listener, dialed, accepted *Conn) {
	t.Helper()
	ln, err := Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	got := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	dialed, err = Dial(network, ln.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	accepted = <-got
	if accepted == nil {
		t.FailNow()
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return ln, dialed, accepted
}

func TestRoundTrip(t *testing.T) {
	for _, c := range []struct{ name, network, addr string }{
		{"tcp127.0.0.1:0", "tcp", "127.0.0.1:0"},
		{"tcp:0", "tcp", ":0"},
		// Named apart from its address: the temporary directory differs
		// on every run.
		{"unix", "unix", filepath.Join(t.TempDir(), "s.sock")},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, d, a := pair(t, c.network, c.addr)
			if _, err := d.Writev([]byte("hello, "), []byte("world")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 12)
			if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "hello, world" {
				t.Fatalf("read %q, %v", buf, err)
			}
			if _, err := a.Write([]byte("back")); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(d, buf[:4]); err != nil || string(buf[:4]) != "back" {
				t.Fatalf("read %q, %v", buf[:4], err)
			}
			a.Close()
			if n, err := d.Read(buf); n != 0 || err != io.EOF {
				t.Fatalf("read after the peer closed: %d, %v; want EOF", n, err)
			}
		})
	}
}

// control runs fn on the descriptor under c's file.
func control(t *testing.T, rc syscall.RawConn, fn func(fd int)) {
	t.Helper()
	if err := rc.Control(func(fd uintptr) { fn(int(fd)) }); err != nil {
		t.Fatal(err)
	}
}

// TestWritevPartialWrites pushes 8 MiB through a 4 KiB send buffer, so
// nearly every writev is partial and most wait on the poller. It runs on a
// Unix socket, the carrier of a same-host rendezvous payload: over loopback
// TCP each 4 KiB waits for an ACK, and the test takes seconds.
func TestWritevPartialWrites(t *testing.T) {
	_, d, a := pair(t, "unix", filepath.Join(t.TempDir(), "s.sock"))
	control(t, d.rc, func(fd int) {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4<<10); err != nil {
			t.Fatal(err)
		}
	})
	hdr := []byte("header--")
	payload := make([]byte, 8<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(io.LimitReader(a, int64(len(hdr)+len(payload))))
		got <- b
	}()
	if n, err := d.Writev(hdr, payload); err != nil || n != len(hdr)+len(payload) {
		t.Fatalf("Writev = %d, %v", n, err)
	}
	if b := <-got; !bytes.Equal(b, append(hdr, payload...)) {
		t.Fatalf("received %d bytes, not what was written", len(b))
	}
}

func TestWritevAllocatesNothing(t *testing.T) {
	_, d, a := pair(t, "tcp", "127.0.0.1:0")
	go io.Copy(io.Discard, a)
	hdr, payload := make([]byte, 16), make([]byte, 1000)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Writev(hdr, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Writev allocates %v times a call", allocs)
	}
}

func TestDeadlines(t *testing.T) {
	_, d, _ := pair(t, "tcp", "127.0.0.1:0")
	d.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := d.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past its deadline: %v", err)
	}
	// The peer reads nothing, so the buffers fill and the write waits.
	d.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := d.Writev(make([]byte, 64<<20), nil); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("writev past its deadline: %v", err)
	}
	if _, err := d.Write(make([]byte, 64<<20)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past its deadline: %v", err)
	}
}

func TestCloseUnblocks(t *testing.T) {
	ln, d, _ := pair(t, "tcp", "127.0.0.1:0")
	accepted, read := make(chan error, 1), make(chan error, 1)
	go func() { _, err := ln.Accept(); accepted <- err }()
	go func() { _, err := d.Read(make([]byte, 1)); read <- err }()
	time.Sleep(20 * time.Millisecond) // let both block in the poller
	ln.Close()
	d.Close()
	for what, ch := range map[string]chan error{"Accept": accepted, "Read": read} {
		select {
		case err := <-ch:
			if !errors.Is(err, os.ErrClosed) {
				t.Errorf("%s after Close: %v, want os.ErrClosed", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Close did not unblock %s", what)
		}
	}
	if _, err := d.Writev([]byte("x"), nil); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Writev after Close: %v, want os.ErrClosed", err)
	}
}

func TestDialClosedPortFailsFast(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	start := time.Now()
	if _, err := Dial("tcp", addr, 10*time.Second); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial to a closed port: %v, want ECONNREFUSED", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("dial to a closed port took %v", d)
	}
}

func TestRejectsNames(t *testing.T) {
	if _, err := Dial("tcp", "localhost:80", time.Second); err == nil {
		t.Fatal("dialed a host name")
	}
	if _, err := Listen("tcp", "localhost:0"); err == nil {
		t.Fatal("listened on a host name")
	}
	for _, bad := range []string{"no-port", "1.2.3.4:x", "1.2.3.4:65536", "node-a:1", "[fe80::1%eth0]:1"} {
		if _, _, err := SplitAddr(bad); err == nil {
			t.Errorf("SplitAddr(%q) accepted", bad)
		}
	}
}

// TestSocketOptions reads back what net would have set, from the kernel.
func TestSocketOptions(t *testing.T) {
	ln, d, a := pair(t, "tcp", "127.0.0.1:0")
	check := func(name string, rc syscall.RawConn, conn bool) {
		control(t, rc, func(fd int) {
			fdfl, _, e1 := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFD, 0)
			fl, _, e2 := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFL, 0)
			if e1 != 0 || e2 != 0 || fdfl&syscall.FD_CLOEXEC == 0 || fl&syscall.O_NONBLOCK == 0 {
				t.Errorf("%s: fd flags %#x, file flags %#x: want FD_CLOEXEC and O_NONBLOCK", name, fdfl, fl)
			}
			want := map[string][3]int{"SO_REUSEADDR": {syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1}}
			if conn {
				want = map[string][3]int{
					"TCP_NODELAY":   {syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
					"SO_KEEPALIVE":  {syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
					"TCP_KEEPIDLE":  {syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15},
					"TCP_KEEPINTVL": {syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15},
					"TCP_KEEPCNT":   {syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9},
				}
			}
			for opt, w := range want {
				if v, err := syscall.GetsockoptInt(fd, w[0], w[1]); err != nil || v != w[2] {
					t.Errorf("%s: %s = %d, %v; want %d", name, opt, v, err, w[2])
				}
			}
		})
	}
	check("listener", ln.rc, false)
	check("dialed", d.rc, true)
	check("accepted", a.rc, true)
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	return len(ents)
}

func TestNoFDLeak(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	before := openFDs(t)
	for i := 0; i < 200; i++ {
		d, err := Dial("tcp", ln.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		a, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		a.Close()
	}
	if after := openFDs(t); after > before {
		t.Fatalf("open fds %d -> %d across 200 dial/accept/close cycles", before, after)
	}
}

// TestWriteToClosedPeer: a write the kernel answers with EPIPE raises
// SIGPIPE too; the runtime must turn it into an error, not a death.
func TestWriteToClosedPeer(t *testing.T) {
	_, d, a := pair(t, "tcp", "127.0.0.1:0")
	a.Close()
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		_, err = d.Writev(make([]byte, 64<<10), nil)
		time.Sleep(time.Millisecond)
	}
	if err == nil {
		t.Fatal("writes to a closed peer kept succeeding")
	}
	if _, err := d.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
}

// TestCloseWrite: after CloseWrite the peer reads everything written before
// and then EOF, while the writer's read side still works — on both networks.
func TestCloseWrite(t *testing.T) {
	for _, c := range []struct{ network, addr string }{
		{"tcp", "127.0.0.1:0"},
		{"unix", filepath.Join(t.TempDir(), "cw.sock")},
	} {
		t.Run(c.network, func(t *testing.T) {
			_, d, a := pair(t, c.network, c.addr)
			if _, err := d.Write([]byte("last")); err != nil {
				t.Fatal(err)
			}
			if err := d.CloseWrite(); err != nil {
				t.Fatal(err)
			}
			a.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(a)
			if err != nil || string(got) != "last" {
				t.Fatalf("peer read %q, %v; want \"last\" then EOF", got, err)
			}
			if _, err := a.Write([]byte("back")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4)
			d.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(d, buf); err != nil || string(buf) != "back" {
				t.Fatalf("writer read %q, %v after CloseWrite; want \"back\"", buf, err)
			}
			if _, err := d.Write([]byte("x")); err == nil {
				t.Fatal("write after CloseWrite succeeded")
			}
		})
	}
}
