package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/mpi/tcpnet"
	"mph/internal/mpirun"
)

// TestMain doubles as the MPMD worker and the per-host agent: when mphrun
// (driven by the tests below) spawns this test binary with MPH_TEST_WORKER
// set it behaves as one executable of a multi-component job, and when it is
// invoked as "agent" it serves the block protocol on its stdio — which is
// how the exec-backend tests cover the remote spawn path without an sshd.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		mpirun.ServeAgent()
		return
	}
	if os.Getenv("MPH_TEST_WORKER") == "1" {
		os.Exit(worker())
	}
	os.Exit(m.Run())
}

// worker is one executable of the launched job: the last rank is "beta",
// every other rank "alpha". They handshake over the TCP world and exchange
// one name-addressed message.
//
// Test hooks, all read from the environment (the launcher forwards MPH_*
// variables to every rank on every host):
//
//	MPH_TEST_FAIL_RANK     this rank exits 3 right after the handshake
//	MPH_TEST_HANG_RANK     this rank sleeps instead of participating, so
//	                       only the launcher's grace kill can end it
//	MPH_TEST_EXIT_RANK     "R[,how]": rank R leaves right after the
//	                       handshake, once beta says it is about to block
//	                       on it — closes its env and exits 0, or exits
//	                       with code how after the close, or with how "kill"
//	                       sends itself SIGKILL
//	MPH_TEST_RECV_LOG      beta writes how long its receive took, in
//	                       nanoseconds, and the error it returned to this file
//	MPH_TEST_EXPECT_HOSTS  comma-separated host of each rank; the worker
//	                       verifies the published topology and a split by it
//	MPH_TEST_SPIN          per-rank imbalance: every rank sleeps rank×SPIN
//	                       before the final barrier, making the highest rank
//	                       the straggler the telemetry tests look for
//	MPH_TEST_MSG_BYTES     pads the name-addressed message to this many
//	                       bytes, so it can take the rendezvous path
func worker() int {
	env, regPath, err := tcpnet.InitFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer env.Close()
	world := mpi.WorldComm(env)

	name := "alpha"
	if world.Rank() == world.Size()-1 {
		name = "beta"
	}
	s, err := core.SingleComponentSetup(world, core.FileSource(regPath), name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if expect := os.Getenv("MPH_TEST_EXPECT_HOSTS"); expect != "" {
		if err := checkTopology(world, strings.Split(expect, ",")); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: topology: %v\n", world.Rank(), err)
			return 1
		}
	}
	// Fault hooks for the launcher tests: the fail rank dies abruptly after
	// the handshake while everyone else blocks in communication and must be
	// released by the launcher's abort broadcast; the hang rank sleeps
	// outside any MPI call, so only the launcher's grace-expiry kill —
	// reaching through the agent for remote ranks — can end it.
	if fr := os.Getenv("MPH_TEST_FAIL_RANK"); fr == strconv.Itoa(world.Rank()) {
		fmt.Fprintln(os.Stderr, "worker: injected failure, exiting 3")
		os.Exit(3)
	}
	if hr := os.Getenv("MPH_TEST_HANG_RANK"); hr == strconv.Itoa(world.Rank()) {
		fmt.Fprintln(os.Stderr, "worker: injected hang")
		time.Sleep(5 * time.Minute)
		os.Exit(0)
	}
	const tag, readyTag = 4, 5
	exitRank, how, _ := strings.Cut(os.Getenv("MPH_TEST_EXIT_RANK"), ",")
	if exitRank == strconv.Itoa(world.Rank()) {
		if _, _, err := world.Recv(world.Size()-1, readyTag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if how == "kill" {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		env.Close()
		code, _ := strconv.Atoi(how)
		os.Exit(code)
	}
	msg := []byte("launched")
	if n, err := strconv.Atoi(os.Getenv("MPH_TEST_MSG_BYTES")); err == nil && n > len(msg) {
		msg = append(msg, make([]byte, n-len(msg))...)
	}
	switch {
	case name == "alpha" && s.LocalProcID() == 1:
		if err := s.SendTo("beta", 0, tag, msg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case name == "beta":
		if r, err := strconv.Atoi(exitRank); err == nil {
			if err := world.Send(r, readyTag, nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		start := time.Now()
		data, _, err := s.RecvFrom("alpha", 1, tag)
		if path := os.Getenv("MPH_TEST_RECV_LOG"); path != "" {
			os.WriteFile(path, []byte(fmt.Sprintf("%d %v", time.Since(start), err)), 0o644)
		}
		if err != nil || !bytes.Equal(data, msg) {
			fmt.Fprintf(os.Stderr, "beta recv: %d bytes, want %d: %v\n", len(data), len(msg), err)
			return 1
		}
		fmt.Println("beta received the message")
	}
	if spin := os.Getenv("MPH_TEST_SPIN"); spin != "" {
		if d, err := time.ParseDuration(spin); err == nil {
			time.Sleep(time.Duration(world.Rank()) * d)
		}
	}
	if err := world.Barrier(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// checkTopology verifies the rank's view of the published host topology
// against the expected per-rank host list and splits the world by it: the
// host-local communicator must contain exactly the ranks sharing this
// rank's host.
func checkTopology(world *mpi.Comm, expect []string) error {
	if len(expect) != world.Size() {
		return fmt.Errorf("expect list has %d entries, world is %d", len(expect), world.Size())
	}
	for r, want := range expect {
		if got := world.HostOf(r); got != want {
			return fmt.Errorf("HostOf(%d) = %q, want %q", r, got, want)
		}
	}
	index := map[string]int{} // host label -> index of first appearance
	colors := make([]int, len(expect))
	for r := range expect {
		if _, ok := index[world.HostOf(r)]; !ok {
			index[world.HostOf(r)] = len(index)
		}
		colors[r] = index[world.HostOf(r)]
	}
	local, err := world.SplitWith(colors, nil)
	if err != nil {
		return fmt.Errorf("split by host: %w", err)
	}
	mine := expect[world.Rank()]
	want := 0
	for _, h := range expect {
		if h == mine {
			want++
		}
	}
	if local.Size() != want {
		return fmt.Errorf("host comm has %d ranks on %s, want %d", local.Size(), mine, want)
	}
	for _, wr := range local.Group() {
		if expect[wr] != mine {
			return fmt.Errorf("host comm contains rank %d on %s, want only %s", wr, expect[wr], mine)
		}
	}
	return nil
}

// writeRegistration drops the two-component registration file used by every
// end-to-end test into a temp dir.
func writeRegistration(t *testing.T) string {
	t.Helper()
	regPath := filepath.Join(t.TempDir(), "processors_map.in")
	if err := os.WriteFile(regPath, []byte("BEGIN\nalpha\nbeta\nEND\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return regPath
}

// selfSpec builds a LaunchSpec that runs this test binary as nAlpha alpha
// ranks plus one beta rank, placed on hosts under the policy.
func selfSpec(t *testing.T, nAlpha int, hosts []mpirun.HostSlot, policy mpirun.Placement) *mpirun.LaunchSpec {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	entries := []mpirun.Entry{
		{Nprocs: nAlpha, Argv: []string{self}},
		{Nprocs: 1, Argv: []string{self}},
	}
	spec, err := mpirun.NewLaunchSpec(entries, hosts, policy)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// withTelemetry attaches an aggregator to the spec, as mphrun -stats does,
// ranks reporting live every `every` (0 = final reports only).
func withTelemetry(t *testing.T, spec *mpirun.LaunchSpec, every time.Duration) *mpirun.Telemetry {
	t.Helper()
	tele, err := mpirun.NewTelemetry(len(spec.Procs), every)
	if err != nil {
		t.Fatal(err)
	}
	spec.Telemetry = tele
	return tele
}

// finalReports is what -stats summarizes: every rank's snapshot as the
// aggregator holds it once Launch has returned — by which time every rank's
// final report must be in, with no waiting.
func finalReports(t *testing.T, tele *mpirun.Telemetry) []perf.Snapshot {
	t.Helper()
	view := tele.View()
	if view.Reporting != view.WorldSize || view.Finals != view.WorldSize {
		t.Fatalf("once Launch returned: %d of %d rank(s) reported, %d final", view.Reporting, view.WorldSize, view.Finals)
	}
	return tele.Snapshots()
}

// TestLaunchEndToEnd runs a real MPMD job: mpirun.Launch spawns three OS
// processes of this test binary (two executables), which bootstrap a TCP
// world, perform the MPH handshake against a registration file, and
// exchange a message (experiment E10).
func TestLaunchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
}

// TestLaunchBindHostName: the launcher resolves a host-name bind, so the
// rendezvous and every rank bind and advertise an IP — a rank handed a name
// would fail at once.
func TestLaunchBindHostName(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Bind = "localhost"
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch with bind %q: %v", spec.Bind, err)
	}
}

// TestLaunchReportsChildFailure verifies that a failing rank fails the job.
func TestLaunchReportsChildFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := &mpirun.LaunchSpec{
		Procs:   []mpirun.Proc{{Rank: 0, Argv: []string{"/bin/false"}}},
		Timeout: 2 * time.Second,
		Grace:   time.Second,
	}
	// /bin/false never registers, so the rendezvous times out — and the
	// child's exit status is nonzero. Either way Launch must error.
	if err := mpirun.Launch(context.Background(), spec); err == nil {
		t.Fatal("launch reported success for a failing job")
	}
}

// TestLaunchChildFailureFast is the regression test for the rendezvous-leak
// bug: when a child exits before registering, Launch must cancel the
// rendezvous and return promptly instead of waiting out the full -timeout
// (here 60s) with the Serve goroutine blocked behind it.
func TestLaunchChildFailureFast(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := &mpirun.LaunchSpec{
		Procs:   []mpirun.Proc{{Rank: 0, Argv: []string{"/bin/false"}}},
		Timeout: 60 * time.Second,
		Grace:   time.Second,
	}
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a failing job")
	}
	if !strings.Contains(err.Error(), "before rendezvous completed") {
		t.Errorf("error %q does not mention the premature exit", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("launch took %v; the early child exit should cancel the 60s rendezvous", elapsed)
	}
}

// TestLaunchFailureReport kills one rank of a live 3-rank job after the
// handshake and checks that the launcher aborts the survivors, exits well
// under the rendezvous timeout, and reports the failures grouped per
// component with the primary failure called out.
func TestLaunchFailureReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_FAIL_RANK", "1")
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	const timeout = 60 * time.Second
	spec.Timeout = timeout
	spec.Grace = 10 * time.Second
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a job with a dying rank")
	}
	if elapsed > timeout/2 {
		t.Fatalf("launch took %v; the abort broadcast should finish the job in well under timeout/2 (%v)", elapsed, timeout/2)
	}
	msg := err.Error()
	if !strings.Contains(msg, "job failed") {
		t.Errorf("report %q lacks the job failed banner", msg)
	}
	if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "(first failure)") {
		t.Errorf("report %q does not single out rank 1 as the first failure", msg)
	}
	if !strings.Contains(msg, "exe0") || !strings.Contains(msg, "exe1") {
		t.Errorf("report %q is not grouped per executable", msg)
	}
}

// TestLaunchPeerExit times a receive blocked on a rank that leaves, through
// real processes: rank 1 leaves right after the handshake while beta (rank 2)
// blocks in RecvFrom on it. The launcher's down line, not a timer, ends the
// receive — in milliseconds when rank 1 closed cleanly, no later than the
// launcher's abort when it was killed. And the report's first failure is
// causal: rank 1 when it failed, though the survivors that reacted to its
// down line may be reaped before it.
func TestLaunchPeerExit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	for _, c := range []struct {
		name, exit string
		errs       []string // what beta's receive may return
		first      bool     // the report names rank 1 as the first failure
	}{
		{"exit 0 after a clean Close", "1", []string{"peer rank 1 lost"}, false},
		{"SIGKILL", "1,kill", []string{"peer rank 1 lost", "job aborted"}, true},
		{"exit 1 after a clean Close", "1,1", []string{"peer rank 1 lost"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			recvLog := filepath.Join(t.TempDir(), "recv")
			t.Setenv("MPH_TEST_WORKER", "1")
			t.Setenv("MPH_TEST_EXIT_RANK", c.exit)
			t.Setenv("MPH_TEST_RECV_LOG", recvLog)
			spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
			spec.Registration = writeRegistration(t)
			spec.Timeout = 60 * time.Second
			err := mpirun.Launch(context.Background(), spec)
			if err == nil {
				t.Fatal("launch succeeded though beta's receive could not")
			}
			msg := err.Error()
			if named := firstFailure.FindString(msg); c.first && !strings.HasPrefix(named, "rank 1:") {
				t.Errorf("report %q does not name rank 1 as the first failure", msg)
			} else if !c.first && strings.Contains(msg, "rank 1:") {
				t.Errorf("report %q lists rank 1, which exited 0", msg)
			}
			out, rerr := os.ReadFile(recvLog)
			if rerr != nil {
				t.Fatal(rerr)
			}
			ns, recvErr, _ := strings.Cut(string(out), " ")
			took, _ := strconv.ParseInt(ns, 10, 64)
			if !containsAny(recvErr, c.errs) {
				t.Errorf("beta's receive returned %q, want one of %q", recvErr, c.errs)
			}
			if d := time.Duration(took); d <= 0 || d > time.Second {
				t.Errorf("beta's receive returned after %v, want under 1s", d)
			}
			t.Logf("beta's receive returned after %v: %s", time.Duration(took), recvErr)
		})
	}
}

// firstFailure finds the rank a failure report calls the first failure.
var firstFailure = regexp.MustCompile(`rank \d+: [^;\n]* \(first failure\)`)

// containsAny reports whether s contains one of subs.
func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestLaunchMultiHostExec runs a 4-rank job placed on two hosts (2 slots
// each) through the exec backend: each host's block is spawned through an
// agent exactly as an ssh launch would, minus the ssh hop. The workers
// verify the published host topology (HostOf, a split by host), the registration
// file travels by value through the agent, and the final reports must still
// reconcile across the "hosts".
func TestLaunchMultiHostExec(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_EXPECT_HOSTS", "nodeA,nodeA,nodeB,nodeB")
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	tele := withTelemetry(t, spec, 0)
	for r, want := range []string{"nodeA", "nodeA", "nodeB", "nodeB"} {
		if got := spec.Procs[r].Host; got != want {
			t.Fatalf("placement: rank %d on %q, want %q", r, got, want)
		}
	}
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	_, totals := summarize(finalReports(t, tele))
	if totals.SentMsgs == 0 || totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d, recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
}

// TestLaunchHierCollectives runs a 5-rank exec-backend job spanning two
// uneven hosts and checks through the final reports that the handshake's
// world collectives routed through the two-level host-aware algorithms (the
// hier pvar is nonzero) while the job-wide send/recv totals still reconcile
// — the same assertions scripts/check.sh greps for.
func TestLaunchHierCollectives(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 3}, {Name: "nodeB", Slots: 2}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_EXPECT_HOSTS", "nodeA,nodeA,nodeA,nodeB,nodeB")
	spec := selfSpec(t, 4, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	tele := withTelemetry(t, spec, 0)
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	snaps := finalReports(t, tele)
	_, totals := summarize(snaps)
	if totals.SentMsgs == 0 || totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d, recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
	var hier uint64
	for i := range snaps {
		for _, c := range snaps[i].Collectives {
			hier += c.Hier
		}
	}
	if hier == 0 {
		t.Error("no collective routed hierarchically across two hosts")
	}
}

// TestLaunchShmChannel places all five ranks of an exec-backend job on ONE
// host and pads the name-addressed message to the eager threshold, so it
// takes the rendezvous path and is eligible for the intra-host channel, and
// checks through the final reports that payload frames actually moved over
// it (shm pvars nonzero on both sides, byte counts matching) while the
// job-wide send/recv totals still reconcile — the same assertions the
// scripts/check.sh shm smoke greps for.
func TestLaunchShmChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 5}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_EXPECT_HOSTS", "nodeA,nodeA,nodeA,nodeA,nodeA")
	t.Setenv("MPH_TEST_MSG_BYTES", strconv.Itoa(tcpnet.DefaultEagerThreshold))
	spec := selfSpec(t, 4, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	tele := withTelemetry(t, spec, 0)
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	snaps := finalReports(t, tele)
	_, totals := summarize(snaps)
	if totals.SentMsgs == 0 || totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d, recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
	var framesOut, framesIn, bytesOut, bytesIn, fallbacks uint64
	for i := range snaps {
		framesOut += snaps[i].Net.ShmRDataOut
		framesIn += snaps[i].Net.ShmRDataIn
		bytesOut += snaps[i].Net.ShmBytesOut
		bytesIn += snaps[i].Net.ShmBytesIn
		fallbacks += snaps[i].Net.ShmFallbacks
	}
	if framesOut == 0 {
		t.Error("no payload frame took the intra-host channel on a single-host placement")
	}
	if framesOut != framesIn {
		t.Errorf("shm frames do not reconcile: %d out, %d in", framesOut, framesIn)
	}
	if bytesOut != bytesIn {
		t.Errorf("shm bytes do not reconcile: %d out, %d in", bytesOut, bytesIn)
	}
	if fallbacks != 0 {
		t.Errorf("%d unexpected fallback(s) to TCP on a healthy single-host job", fallbacks)
	}
}

// TestLaunchMultiHostChaos is the cross-host failure-semantics test: in a
// 4-rank exec-backend job spanning two hosts, rank 1 (nodeA) dies right
// after the handshake and rank 3 (nodeB) hangs outside any MPI call. The
// launcher must abort the survivors across the host boundary, kill the
// hanging remote rank through its agent once -grace expires, finish in
// bounded time, and name both casualties with their hosts in the report.
func TestLaunchMultiHostChaos(t *testing.T) {
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
	spec.Spawner = mpirun.NewExecSpawner("")
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a chaos job")
	}
	// The hang rank sleeps for minutes; anything close to that means the
	// grace kill never reached the remote process group.
	if elapsed > 30*time.Second {
		t.Fatalf("launch took %v; the grace kill should bound the job to seconds", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1@nodeA") || !strings.Contains(msg, "(first failure)") {
		t.Errorf("report %q does not name rank 1@nodeA as the first failure", msg)
	}
	if !strings.Contains(msg, "rank 3@nodeB") {
		t.Errorf("report %q does not name the killed hanging rank 3@nodeB", msg)
	}
}

// TestLaunchTelemetryMetrics is the end-to-end telemetry-plane test: a
// 4-rank exec-backend job on two fake hosts pushes periodic snapshot reports
// to a launcher-side aggregator whose /metrics endpoint is scraped MID-RUN
// (live Prometheus series with not-yet-final ranks), a rank's goroutine
// stacks are asked for over its session mid-run, and once Launch returns
// every rank's final report is in and the aggregated totals reconcile
// job-wide. The deliberate per-rank imbalance (MPH_TEST_SPIN) makes the last
// rank the straggler, which the stats summary must name.
func TestLaunchTelemetryMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_SPIN", "250ms")
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	tele := withTelemetry(t, spec, 100*time.Millisecond)
	srv := httptest.NewServer(tele.Handler())
	defer srv.Close()

	// Scrape /metrics while the job runs; the spin keeps it alive ~750ms, so
	// with 100ms report intervals a live (non-final) view must be observable.
	liveScrape := make(chan string, 1)
	stopPoll := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				s := string(body)
				// All four reporting, none final: ranks are forked one after
				// another, so a view with any series is not yet one with all.
				if strings.Contains(s, "mph_job_ranks_reporting 4") &&
					strings.Contains(s, "mph_job_ranks_final 0") {
					select {
					case liveScrape <- s:
					default:
					}
					return
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	// Ask a rank for its goroutine stacks over its session, also mid-run.
	liveStacks := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/rank/1/stacks")
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					liveStacks <- string(body)
					return
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	close(stopPoll)

	select {
	case body := <-liveStacks:
		if !strings.Contains(body, "Session).Serve") {
			t.Errorf("mid-run /rank/1/stacks does not show the session's Serve:\n%s", body)
		}
	default:
		t.Error("never got rank 1's goroutine stacks mid-run")
	}
	select {
	case body := <-liveScrape:
		for _, want := range []string{
			"# TYPE mph_job_sent_messages_total counter",
			"mph_job_ranks_expected 4",
			`component="alpha"`,
			`component="beta"`,
			`host="nodeA"`,
			`host="nodeB"`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("mid-run /metrics missing %q in:\n%s", want, body)
			}
		}
	default:
		t.Error("never scraped a live (pre-final) /metrics view mid-run")
	}

	snaps := finalReports(t, tele)
	view := tele.View()
	if !view.Reconciled || view.TotalSentMsgs == 0 {
		t.Errorf("job-wide totals must reconcile: %+v", view)
	}

	// Every rank's clock-sync handshake produced an estimate (loopback RTT
	// is nonzero, so the error bound must be too).
	for _, rs := range view.Ranks {
		if rs.ClockErrBoundNS <= 0 {
			t.Errorf("rank %d: no clock-sync estimate (bound %d)", rs.Rank, rs.ClockErrBoundNS)
		}
	}

	// The spin makes the highest rank arrive last at the final barrier:
	// every other rank waits for it, so it reports the least barrier time
	// and the straggler table names it the suspect.
	rows := stragglers(snaps)
	var barrier *stragglerRow
	for i := range rows {
		if rows[i].Op == "barrier" {
			barrier = &rows[i]
			break
		}
	}
	if barrier == nil {
		t.Fatalf("no barrier row in straggler table: %+v", rows)
	}
	if barrier.SuspectRank != 3 {
		t.Errorf("straggler suspect rank %d, want 3 (it slept longest)", barrier.SuspectRank)
	}
	var buf strings.Builder
	printStragglers(&buf, snaps)
	if !strings.Contains(buf.String(), "collective wait skew") {
		t.Errorf("straggler output missing table:\n%s", buf.String())
	}
}

// TestLaunchStats runs the same MPMD job with stats and trace collection
// enabled, as mphrun -stats -trace does, and verifies that every rank's final
// report is in the moment Launch returns, that the aggregated totals
// reconcile (every message sent was received), that the summary's
// top-talkers table leads with the one message the test knows, alpha rank
// 1's msgBytes to beta, and that the trace dumps appear.
func TestLaunchStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	traceDir := t.TempDir()
	t.Setenv("MPH_TEST_WORKER", "1")
	const msgBytes = 8 << 10
	t.Setenv("MPH_TEST_MSG_BYTES", strconv.Itoa(msgBytes))
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.ExtraEnv = []string{perf.EnvTraceDir + "=" + traceDir}
	tele := withTelemetry(t, spec, 0)
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}

	snaps := finalReports(t, tele)
	rows, totals := summarize(snaps)
	if totals.SentMsgs == 0 {
		t.Error("no messages counted: handshake traffic should be nonzero")
	}
	if totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d != recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
	if totals.SentBytes != totals.RecvBytes {
		t.Errorf("byte totals do not reconcile: sent %d != recv %d", totals.SentBytes, totals.RecvBytes)
	}
	names := make(map[string]bool)
	for _, r := range rows {
		names[r.Name] = true
	}
	if !names["alpha"] || !names["beta"] {
		t.Errorf("summary rows %v missing component names alpha/beta", names)
	}
	var buf strings.Builder
	printStats(&buf, tele)
	out := buf.String()
	if !strings.Contains(out, "totals reconcile") {
		t.Errorf("summary output lacks reconciliation line:\n%s", out)
	}
	// Rank 1's count to rank 2 is the padded message plus its share of the
	// handshake and the barrier, a few hundred bytes at most.
	sent := snaps[1].SentBytes[2]
	if sent < msgBytes || sent >= msgBytes+1024 {
		t.Errorf("rank 1 reports %d bytes sent to rank 2, want the %d-byte message and under 1 KiB more", sent, msgBytes)
	}
	row := fmt.Sprintf("1 (alpha) -> 2 (beta) %d %d", snaps[1].SentMsgs[2], sent)
	_, table, _ := strings.Cut(out, "top talkers (exact, by bytes sent)\n")
	if rows := strings.Split(table, "\n"); len(rows) < 2 || strings.Join(strings.Fields(rows[1]), " ") != row {
		t.Errorf("top-talkers table does not lead with %q:\n%s", row, out)
	}

	traces, err := filepath.Glob(filepath.Join(traceDir, "trace.rank*.bin"))
	if err != nil || len(traces) != 3 {
		t.Fatalf("trace dumps: %v (err %v), want 3 files", traces, err)
	}
}
