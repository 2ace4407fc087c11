#!/bin/sh
# Repository check suite: everything a change must pass before merging.
# Why each pass is here, where the command does not say it:
# - the -race passes target internal/mpi (the matching engine is the
#   concurrency-critical core) and repeat the engine's ordering tests (posted
#   order, peer loss, the matching-order torture and random schedules: the
#   two FIFO lists are the only thing that keeps non-overtaking), the
#   fault-injection and first-contact tests, the most interleaving-sensitive
#   code in the tree (TestChaosDownLineEndsDialRetry among them: a down
#   line must end a send's dial retry at once), and the receive-into-place
#   tests (a transport stream writes into a slab the application owns: the
#   failure paths must never hand it back early),
#   and the lifetime tests of the recycled eager buffers, re-armed requests,
#   the two-rank and tree allreduces' scratch with their results written
#   into the caller's operand, and the recycled rendezvous records (a record
#   given back too early, or seen twice, shows as a corrupted checksum, a
#   race, or a recycled record's panic); their allocation budgets
#   (TestEagerRecvIntoAllocBudget, TestAllocBudget*, TestSnapshotAllocBudget,
#   TestCoupledPeriodAllocBudget, TestCoupledBulkPeriodAllocBudget) hold
#   under -race as well — every buffer and record on the path comes from a
#   bounded free list, no sync.Pool drops a Put — so they run in the plain
#   pass, in the internal/mpi -race pass and, for the coupled periods and a
#   rank's snapshot, in a -race pass of their own, beside the TCP coupled
#   run that checks every rank's diagnostics land in one buffer of its own;
# - the tracer is one ring written by every goroutine of a rank: its tests
#   (the ring keeps exactly the newest events, a dump never goes back in
#   time while several goroutines record, a dump reads back as it was
#   written) and mphtrace's, which read its dumps into the timeline and
#   its one summary line, repeat under -race, with -stats' tables (exact
#   top talkers from the reports, one reconciliation verdict): counts come
#   from the reports, the timeline from the traces;
# - a band range two processors share moves as one message; the coupler
#   folds land's and ocean's fields as they come off the connection beside
#   two slabs it sends from, fills land's and ocean's increments as they go
#   out, and a model folds its increment into its state, so the
#   rendezvous-sized coupled run over TCP repeats under -race on two
#   layouts: a send that let go of its buffer late, or a fold that ran after
#   its receive returned, would show as a race or a diagnostic that differs
#   from the in-process run, a post made out of order as a hang; the slab
#   budget, the plan tests (one message a pair, Volume against a TCP
#   period's messages, the folding run, a failed Start that lands nothing
#   late) and the in-place merge against the out-of-place reference repeat
#   with it, the fold and fill tests (pieces, a cut copy resent, a failure
#   mid-payload) repeat in the receive-into-place pass, and the chaos pass
#   kills, severs or aborts the rank each late post, fold or fill waits on;
# - the launcher decides who is dead, and a closing rank lingers until its
#   peers have read what it sent: the linger test and the closing-Barrier
#   first contact repeat under -race (each fails if a down line overtakes
#   data), and so does the intra-host listener opened by ctsLoop at the
#   first same-host CTS and advertised by a hello on a stream every sender
#   already writes to, and the launcher's peer-exit test times a receive blocked on a
#   rank that leaves and repeats the exit-1-after-Close case, whose report
#   must name the rank whose session ended first, not the first one reaped;
# - the session race pass repeats TestLaunchStats: -stats prints only the
#   final reports ranks send over their sessions, so every one of them must
#   be in when Launch returns, on every run; it covers the socket layer the
#   sessions and the streams run on, internal/sock, whole;
# - the reachability pass keeps out code that no binary runs: what only
#   tests call is test code, or is named with its reason in
#   scripts/unreached.txt;
# - the bench smoke runs every Benchmark* once, so every experiment of
#   EXPERIMENTS.md keeps a command that executes (one harness: go test -bench);
# - the launcher smokes drive the remote-spawn path end to end without an
#   sshd: the exec backend is one "mphrun agent" per host speaking the block
#   protocol over a pipe, host names are placement labels;
# - the closing line count and stripped size of examples/climate are the next
#   PR's baselines in the log; the default build of examples/climate must
#   have no ELF interpreter: a rank links no libc (DESIGN.md, "What a rank
#   links").
set -eux

cd "$(dirname "$0")/.."

go vet ./...
sh scripts/guards.sh
go run ./scripts/lintdoc .
go build ./...

# Reachability: build every main package of the module and of benchmark/
# with inlining off, so no inlined call hides its callee, and check that
# every non-test function is in some binary's symbols or named, with its
# reason, in scripts/unreached.txt (and that every entry there is still
# unreached and still exists).
reach=$(mktemp -d)
roots=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
go build -gcflags=all=-l -o "$reach/" $roots
(cd benchmark && go build -gcflags=all=-l -o "$reach/" . ./rank)
for pkg in $roots mph/benchmark mph/benchmark/rank; do
    echo "binary $pkg"
    go tool nm "$reach/${pkg##*/}"
done | go run ./scripts/lintdoc -reach scripts/unreached.txt .
rm -rf "$reach"

# runtests PATTERN FLAGS PKG...: go test -run PATTERN FLAGS PKG..., once
# every |-separated alternative of PATTERN (up to its first /) lists a test
# there with go test -list: go test -run with no match passes silently, so a
# renamed or deleted test would drop out of its pass unseen.
runtests() {
    pattern=$1 flags=$2
    shift 2
    for alt in $(echo "$pattern" | tr '|' ' '); do
        if ! go test -list "${alt%%/*}" "$@" | grep -qv '^ok \|^? '; then
            echo "check.sh: -run alternative '$alt' lists no test in $*"
            exit 1
        fi
    done
    go test -run "$pattern" $flags "$@"
}

go test ./...
go test -race ./internal/mpi/...
runtests 'TestPeerLostSelectsRecords|TestExactVsWildcardArbitration|TestPostedOrder|TestMatchingOrderTorture|TestRandomTrafficSchedules' '-race -count=2' ./internal/mpi
runtests 'Fault|Chaos' '-race -count=2' ./internal/mpi/...
runtests 'TestTransferBothSidesRendezvous|RecvInto|IrecvInto|ReceiveRendezvous|Fold' '-race -count=2' ./internal/mpi/...
runtests 'EagerLifetime|TestRearm|TestPairMatchesTree|TestRendezvousLifetime|TestAllreduceFloatsInPlace|TestAllocBudgetTreeAllreduce' '-race -count=2' ./internal/mpi/...
runtests 'TestCoupledPeriodAllocBudget|TestCoupledBulkPeriodAllocBudget|TestCoupledRunOverTCPRendezvous|TestCoupledRunOverTCP$|TestSnapshotAllocBudget' '-race -count=2' \
    ./internal/coupler ./internal/mpi/perf
runtests 'TestCoupledSlabBudget|TestInPlaceMergeMatchesReference|TestPlanWaitWithoutRun|TestTransferFold|TestStartFailureLandsNothingLate|TestRouterVolumeProperty|TestVolumeCountsSentMessages' \
    '-race -count=2' ./internal/coupler ./internal/xfer
runtests 'Tracer|Dump|KindNames|PhaseAndCollOpNames|Merge|SummaryLine|AlignedBase|ExpandArgs|LoadTrace|PrintStats' '-race -count=2' \
    ./internal/mpi/perf ./cmd/mphtrace ./cmd/mphrun
runtests 'TestHandshakeCollectiveCounts|TestHandshakeDialBudget|TestFirstContactInClosingBarrier|TestLingerDeliversLastMessage|TestShmAdvertisedOnOpenStream' \
    '-race -count=2' ./internal/core ./internal/mpi/tcpnet
runtests 'Telemetry|ClockOffset|Session|Rendezvous' -race ./internal/mpirun ./internal/bootstrap
go test -race ./internal/sock
runtests 'TestLaunchStats$' '-race -count=5' ./cmd/mphrun
runtests 'TestLaunchPeerExit' -count=2 ./cmd/mphrun
runtests 'TestLaunchPeerExit/exit_1_after_a_clean_Close' -count=20 ./cmd/mphrun
go test -run=NONE -fuzz=FuzzFrameDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/mpi/tcpnet
go test -run=NONE -fuzz=FuzzParseSpec -fuzztime=10s -fuzzminimizetime=1s ./internal/mpirun
go test -run=NONE -fuzz=FuzzBlockRecord -fuzztime=10s -fuzzminimizetime=1s ./internal/mpirun
go test -run=NONE -fuzz=FuzzSession -fuzztime=10s -fuzzminimizetime=1s ./internal/bootstrap
go test -run=NONE -fuzz=FuzzSnapshotDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/mpi/perf
go test -run=NONE -fuzz=FuzzAddr -fuzztime=10s -fuzzminimizetime=1s ./internal/sock
go test -run=NONE -bench=. -benchtime=1x ./...

# Rendezvous alloc-regression guard: a 1 MiB rendezvous send, on either
# carrier, must not allocate beyond ~1.7 payloads per op (receiver buffer +
# slack); 2+ means a sender-side payload copy crept back in.
go test -run=NONE -bench='BenchmarkSend/1048576B/rendezvous' -benchtime=100x -benchmem \
    ./internal/mpi/tcpnet | tee /tmp/rdvbench.$$
awk '/^BenchmarkSend/ { cells++; for (i = 1; i < NF; i++) if ($(i+1) == "B/op" && $i + 0 > 1.7 * 1048576) {
         print $1 " allocates " $i " B/op, budget 1.7 MiB"; bad = 1 } }
     END { if (cells != 2) { print "want 2 rendezvous cells, saw " cells + 0; exit 1 } exit bad }' \
    /tmp/rdvbench.$$
rm -f /tmp/rdvbench.$$

# Steady-state allocation gate: a period of the M-to-N plan (128x64 grid,
# 65,536 bytes moved) must not allocate beyond 1.5 x what it moves — over the
# in-process transport the sender's copy of each segment is the 1.0; 3-4 x
# means encode, decode or a fresh destination slab crept back into xfer.
go test -run=NONE -bench=BenchmarkMToNTransfer -benchmem ./internal/xfer | tee /tmp/xferbench.$$
awk '/^BenchmarkMToNTransfer/ { cells++; for (i = 1; i < NF; i++) if ($(i+1) == "B/op" && $i + 0 > 1.5 * 65536) {
         print $1 " allocates " $i " B/op, budget 98304 (1.5 x 65536 moved)"; bad = 1 } }
     END { if (cells != 3) { print "want 3 transfer cells, saw " cells + 0; exit 1 } exit bad }' \
    /tmp/xferbench.$$
rm -f /tmp/xferbench.$$

# Small-message allocation gate: a two-rank 8-byte AllreduceFloats over TCP —
# the coupled period's hottest call — allocates nothing: its result lands in
# its operand. 32 B/op over both ranks is the slack for one-off growth
# amortized over the run (2-3 B/op measured); 64+ means a result slice, a
# request, a packet, an encode/decode temporary or the closure crept back.
go test -run=NONE -bench='BenchmarkAllreduce/2ranks/8B/pair' -benchtime=2000x -benchmem \
    ./internal/mpi/tcpnet | tee /tmp/pairbench.$$
awk '/^BenchmarkAllreduce/ { cells++; for (i = 1; i < NF; i++) if ($(i+1) == "B/op" && $i + 0 > 32) {
         print $1 " allocates " $i " B/op, budget 32"; bad = 1 } }
     END { if (cells != 1) { print "want 1 allreduce cell, saw " cells + 0; exit 1 } exit bad }' \
    /tmp/pairbench.$$
rm -f /tmp/pairbench.$$

# Multi-host exec-backend smoke: 5 ranks on two 2-slot hosts (rank 4 wraps).
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/mphrun" ./cmd/mphrun
go build -o "$smoke/climate" ./examples/climate
cat > "$smoke/job.cmd" <<EOF
1 $smoke/climate -component atmosphere -periods 2 -logdir $smoke
1 $smoke/climate -component ocean      -periods 2 -logdir $smoke
1 $smoke/climate -component land       -periods 2 -logdir $smoke
1 $smoke/climate -component ice        -periods 2 -logdir $smoke
1 $smoke/climate -component coupler    -periods 2 -logdir $smoke
EOF
"$smoke/mphrun" -hosts nodeA:2,nodeB:2 -backend exec -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in
grep -q "period" "$smoke/coupler.log"

# Hierarchical-collective smoke: same job, uneven 3+2 placement; the world
# spans two hosts, so the handshake's collectives route two-level.
"$smoke/mphrun" -hosts nodeA:3,nodeB:2 -backend exec -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/hier.out"
grep -q "totals reconcile" "$smoke/hier.out"
grep -Eq "collective routing: .* hier=[1-9]" "$smoke/hier.out"

# Shm-channel smoke: all 5 ranks on one host, on couple_bulk's 384x192 grid,
# whose exchange pieces exceed the 64 KiB eager threshold, so they take the
# rendezvous path and with it the intra-host channel.
cat > "$smoke/bulk.cmd" <<EOF
1 $smoke/climate -component atmosphere -nlat 384 -nlon 192 -periods 2 -substeps 1 -logdir $smoke
1 $smoke/climate -component ocean      -nlat 384 -nlon 192 -periods 2 -substeps 1 -logdir $smoke
1 $smoke/climate -component land       -nlat 384 -nlon 192 -periods 2 -substeps 1 -logdir $smoke
1 $smoke/climate -component ice        -nlat 384 -nlon 192 -periods 2 -substeps 1 -logdir $smoke
1 $smoke/climate -component coupler    -nlat 384 -nlon 192 -periods 2 -substeps 1 -logdir $smoke
EOF
"$smoke/mphrun" -hosts nodeA:5 -backend exec -stats \
    -cmdfile "$smoke/bulk.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/shm.out"
grep -q "totals reconcile" "$smoke/shm.out"
grep -Eq "shm channel: [1-9][0-9]* payload frame" "$smoke/shm.out"

# Daemon smoke: start a real mphd on a loopback port and run the climate job
# through it — the persistent-agent launch path (SpawnBlock gang spawn, event
# streaming, daemon-side reaping) end to end, with the stats summary still
# reconciling. The daemon is killed (and its death tolerated) on exit.
go build -o "$smoke/mphd" ./cmd/mphd
"$smoke/mphd" -listen 127.0.0.1:7641 > "$smoke/mphd.out" 2>&1 &
mphd_pid=$!
trap 'kill "$mphd_pid" 2>/dev/null; rm -rf "$smoke"' EXIT
"$smoke/mphrun" -hosts nodeA:3,nodeB:2 -backend daemon -daemon-addr 127.0.0.1:7641 \
    -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/daemon.out"
grep -q "totals reconcile" "$smoke/daemon.out"

# Telemetry smoke: the same job, paced to ~2s of wall-clock (the unpaced
# grid finishes in milliseconds — too fast to scrape), with live reporting.
# The pollers start first (they retry until the launcher's -http server is
# up): one must see per-rank Prometheus series while the job runs, the other
# rank 1's goroutine stacks, asked over its session; then the -stats summary
# must reconcile job-wide.
go build -o "$smoke/httpget" ./scripts/httpget
cat > "$smoke/telejob.cmd" <<EOF
1 $smoke/climate -component atmosphere -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component ocean      -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component land       -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component ice        -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component coupler    -periods 20 -pace 100ms -logdir $smoke
EOF
"$smoke/httpget" -timeout 60s -pattern mph_rank_sent_messages_total \
    http://127.0.0.1:7399/metrics > "$smoke/metrics.out" &
poller=$!
"$smoke/httpget" -timeout 60s -pattern 'Session).Serve' \
    http://127.0.0.1:7399/rank/1/stacks > "$smoke/stacks.out" &
stacks_poller=$!
"$smoke/mphrun" -hosts nodeA:2,nodeB:2 -backend exec -stats \
    -stats-interval 100ms -http 127.0.0.1:7399 \
    -cmdfile "$smoke/telejob.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/telemetry.out"
wait "$poller"
wait "$stacks_poller"
grep -q "mph_job_ranks_expected 5" "$smoke/metrics.out"
grep -q "totals reconcile" "$smoke/telemetry.out"

# Non-test Go lines outside benchmark/ (16,401 before a band range moved as
# one message folded and filled in pieces, 16,643 after) and the stripped
# size of a component executable (2,289,848 bytes before, 2,298,040 after),
# printed for later comparison.
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
go build -ldflags='-s -w' -o "$smoke/climate.stripped" ./examples/climate
wc -c < "$smoke/climate.stripped"
if readelf -l "$smoke/climate" | grep INTERP; then
    echo "examples/climate is linked dynamically: something a rank imports has cgo files"
    exit 1
fi
