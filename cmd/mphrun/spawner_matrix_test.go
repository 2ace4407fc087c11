package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mph/internal/mpirun"
)

// sshStub writes a fake ssh client that ignores every option and host
// argument and just runs the final argument (the remote command line) in a
// local shell — the agent hop without the network — as "ssh" in a directory
// put at the head of PATH for the rest of the test. It lets the ssh spawner
// run unmodified in CI: option parsing, command quoting, agent protocol,
// kill forwarding.
func sshStub(t *testing.T) {
	t.Helper()
	dir := t.TempDir()
	script := "#!/bin/sh\nfor a in \"$@\"; do cmd=\"$a\"; done\nexec /bin/sh -c \"$cmd\"\n"
	if err := os.WriteFile(filepath.Join(dir, "ssh"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
}

// testAgentPath points the agent-capable spawners at this test binary,
// whose TestMain doubles as the agent entry point.
func testAgentPath(t *testing.T) string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return self
}

// startDaemon runs an in-process Daemon on an ephemeral loopback port and
// returns a spawner pinned to it: the loopback TCP carrier the benchmark's
// placed workload launches through.
func startDaemon(t *testing.T) mpirun.Spawner {
	t.Helper()
	d, err := mpirun.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(func() { d.Close() })
	return mpirun.NewDaemonSpawner(d.Addr(), 0)
}

// TestLaunchSpawnerMatrix runs the same two-component MPH job — handshake,
// topology check, named message, final barrier — through every Spawner
// implementation. The matrix is the contract: any spawner that passes here
// is interchangeable under mpirun.Launch.
func TestLaunchSpawnerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	twoHosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	cases := []struct {
		name        string
		hosts       []mpirun.HostSlot
		expectHosts string
		spawner     func(t *testing.T) mpirun.Spawner
	}{
		{"local", nil, "", func(t *testing.T) mpirun.Spawner {
			return mpirun.NewLocalSpawner()
		}},
		{"exec", twoHosts, "nodeA,nodeA,nodeB,nodeB", func(t *testing.T) mpirun.Spawner {
			return mpirun.NewExecSpawner(testAgentPath(t))
		}},
		{"ssh", twoHosts, "nodeA,nodeA,nodeB,nodeB", func(t *testing.T) mpirun.Spawner {
			sshStub(t)
			return mpirun.NewSSHSpawner(testAgentPath(t), nil)
		}},
		{"daemon", twoHosts, "nodeA,nodeA,nodeB,nodeB", func(t *testing.T) mpirun.Spawner {
			return startDaemon(t)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("MPH_TEST_WORKER", "1")
			t.Setenv("MPH_TEST_EXPECT_HOSTS", tc.expectHosts)
			spec := selfSpec(t, 3, tc.hosts, mpirun.PlaceBlock)
			spec.Registration = writeRegistration(t)
			spec.Timeout = 60 * time.Second
			spec.Spawner = tc.spawner(t)
			if err := mpirun.Launch(context.Background(), spec); err != nil {
				t.Fatalf("launch via %s spawner: %v", tc.name, err)
			}
		})
	}
}

// TestLaunchDaemonChaos repeats the cross-host failure-semantics test with
// the loopback daemon carrier: rank 1 (nodeA) dies after the handshake, rank 3
// (nodeB) hangs outside any MPI call. The abort must cross the host
// boundary and the grace-expiry kill must reach the hanging rank through
// the daemon, finishing the job in bounded time with both casualties
// named in the report.
func TestLaunchDaemonChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_FAIL_RANK", "1")
	t.Setenv("MPH_TEST_HANG_RANK", "3")
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Grace = 2 * time.Second
	spec.Spawner = startDaemon(t)
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a chaos job")
	}
	// The hang rank sleeps for minutes; anything close to that means the
	// grace kill never made it through the daemon.
	if elapsed > 30*time.Second {
		t.Fatalf("launch took %v; the daemon-side grace kill should bound the job to seconds", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1@nodeA") || !strings.Contains(msg, "(first failure)") {
		t.Errorf("report %q does not name rank 1@nodeA as the first failure", msg)
	}
	if !strings.Contains(msg, "rank 3@nodeB") {
		t.Errorf("report %q does not name the killed hanging rank 3@nodeB", msg)
	}
}

// TestLaunchDaemonDeathMidJob kills the host daemon while a job is live:
// the launcher must convert the lost control connection into a supervised
// job failure — every still-running rank reported with a connection-lost
// error, bounded turnaround, never a hang until the rendezvous timeout.
func TestLaunchDaemonDeathMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 4}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_HANG_RANK", "2")
	d, err := mpirun.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(func() { d.Close() })
	spec := selfSpec(t, 2, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Grace = 2 * time.Second
	spec.Spawner = mpirun.NewDaemonSpawner(d.Addr(), 0)
	// The daemon "crashes" shortly after the handshake has the job running.
	go func() {
		time.Sleep(1500 * time.Millisecond)
		d.Close()
	}()
	start := time.Now()
	err = mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success after its daemon died mid-job")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("launch took %v; daemon death must surface promptly, not wait out the timeout", elapsed)
	}
	if !strings.Contains(err.Error(), "connection lost") {
		t.Errorf("report %q does not surface the lost daemon connection", err)
	}
}
