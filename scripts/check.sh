#!/bin/sh
# Repository check suite: everything a change must pass before merging.
# The race pass targets internal/mpi because the matching engine is the
# concurrency-critical core; its stress tests are written to run under -race.
# The perf package gets an explicit vet (it is the observability layer every
# future perf PR reports through), and the tracer-overhead benchmark runs
# once as a smoke test that both tracer paths still execute. The chaos pass
# repeats the fault-injection tests under -race: failure paths are the most
# interleaving-sensitive code in the tree. lintdoc enforces doc comments on
# every exported identifier (golint's exported rule, in-tree). The collective
# bench smoke runs one tree and one ring Allgather iteration so both flat
# rows of the selector table stay executable. The rendezvous
# alloc guard runs the large-send benchmark with -benchmem and fails if the
# send path regrows a payload-sized copy (B/op must stay near one payload —
# the receiver's buffer — for 1 MiB messages). The P2 smoke runs one cell of
# the eager/rendezvous sweep so the mphbench TCP-pair harness stays
# executable. The multi-host smoke launches the climate example across two
# placement hosts through the exec backend (one "mphrun agent" per host
# speaking the block protocol over a pipe — the full remote spawn path,
# minus ssh) with stats on, so the remote-launch machinery stays exercised
# end to end without an sshd. The telemetry smoke reruns that job with live
# reporting on and scrapes the launcher's Prometheus /metrics endpoint
# mid-run (scripts/httpget, so no curl dependency), then asserts the final
# summary reconciles sent == received job-wide. The hierarchical smoke reruns
# the two-host job with the two-level host-aware collectives forced on
# (MPH_COLL_HIER=1) and asserts both that the totals still reconcile and that
# the routing line counts at least one hierarchical selection — proof the
# hier path actually ran across the host boundary, not just that it parsed.
# The shm smoke places all five ranks on ONE host with rendezvous forced
# (MPH_EAGER_THRESHOLD=0) and asserts the summary counts at least one
# intra-host payload frame AND still reconciles — proof the Unix-socket
# payload channel engaged under a real exec-backend launch and lost nothing.
# The daemon smoke starts a real mphd and launches the climate job through it
# (-backend daemon), proving the persistent-agent path works outside the unit
# tests; the L1 smoke keeps the launch-latency harness executable. The
# removed-names guard keeps the second remote-spawn implementation, the
# Backend shim, the shm-ack reverse dial, tcpnet's test-only second decoder
# and per-carrier write/drop/sever copies, the segmented hierarchical
# collectives with their MPH_COLL_SEGMENT knob, and the two-level Reduce and
# Allgather no measured cell supported from creeping back; the
# selector guard fails if an algorithm is counted anywhere but in choose's
# file; the gofmt gate fails on any unformatted file. The fuzz smoke runs the
# native fuzzer for ten seconds over the decoder loop production reads frames
# with. The first-contact pass runs, under -race, the tests that pin what the
# MPH handshake costs (two world collectives on one tree — 27 messages on a
# 5+5 two-host world, 3 of them between the hosts — and 2(N-1) dials) and the
# closing-Barrier case the reverse dial used to break. The link-budget guard fails if anything a rank is built from
# (tcpnet, core, coupler, the climate and mcme examples) links net/http,
# crypto/tls, os/exec or the launcher package again. The closing line count
# and the stripped size of examples/climate give the next PR its baselines in
# the log.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go vet ./internal/mpi/perf
# One remote-spawn protocol, one connection per directed contact, one frame
# decoder, one write and one drop/sever routine for both carriers, two-level
# collectives by composition only: these names were deleted and stay deleted
# (an if, because set -e does not act on a "!" pipeline).
if grep -rn 'agent-exec\|BackendExec\|NewSpawner(\|kindShmAck\|shmAckFrame\|maybeOfferShm\|shmOffered\|perf\.Handler\|perf\.PprofMux\|mpirun\.RegisterEndpoint\|mpirun\.EnvFromOS\|mpirun\.SendAbort\|mpirun\.DialTelemetry\|decodePacket\|decodeRTS\|decodeRData\|readFrame(\|sendv(\|shmOutConn\|dropShmConn\|severShm\|shmPeerDown\|EnvCollSegment\|DefaultCollSegment\|MPH_COLL_SEGMENT\|segmentBounds\|prependTotal\|recvSegmented\|bcastHierLeader\|allreduceHierOpaque\|allgatherHier\|\<reduceHier\|tagHierFeed' --include=*.go .; then
    exit 1
fi
# One selector: exactly one non-test file of internal/mpi counts an algorithm.
test "$(grep -l 'pv\.CollAlgo(' internal/mpi/*.go | grep -vc _test.go)" = 1
# Link budget: a component executable links the rank side only. Nothing a
# rank is built from may pull in the HTTP/TLS stack, process spawning or the
# launcher (DESIGN.md §14, "What a rank links").
if go list -deps ./internal/mpi/tcpnet ./internal/core ./internal/coupler ./examples/climate ./examples/mcme |
    grep -x 'net/http\|crypto/tls\|os/exec\|mph/internal/mpirun'; then
    exit 1
fi
test -z "$(gofmt -l .)"
go run ./scripts/lintdoc .
go build ./...
go test ./...
go test -race ./internal/mpi/...
go test -run 'Fault|Chaos' -race -count=2 ./internal/mpi/...
go test -run 'TestHandshakeCollectiveCounts|TestHandshakeDialBudget|TestFirstContactInClosingBarrier' \
    -race -count=2 ./internal/core ./internal/mpi/tcpnet
go test -run 'Telemetry|ClockOffset' -race ./internal/mpirun ./internal/bootstrap
go test -run=NONE -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/mpi/tcpnet
go test -run=NONE -bench=BenchmarkTracerOverhead -benchtime=1x ./internal/mpi
go test -run=NONE -bench=BenchmarkAllgather -benchtime=1x ./internal/mpi

# Rendezvous alloc-regression guard: 1 MiB sends must not allocate beyond
# ~1.7 payloads per op (receiver buffer + slack); 2+ means a sender-side
# payload copy crept back in.
go test -run=NONE -bench=BenchmarkRendezvousSend -benchtime=100x -benchmem \
    ./internal/mpi/tcpnet | tee /tmp/rdvbench.$$
awk '/BenchmarkRendezvousSend/ { for (i = 1; i <= NF; i++) if ($(i+1) == "B/op") bop = $i }
     END { if (bop == "") { print "no B/op reported"; exit 1 }
           if (bop + 0 > 1.7 * 1048576) { print "rendezvous send allocates " bop " B/op, budget 1.7 MiB"; exit 1 } }' \
    /tmp/rdvbench.$$
rm -f /tmp/rdvbench.$$

# P2 smoke: one cell of the eager/rendezvous transport sweep.
go run ./cmd/mphbench -exp P2 -repeat 1 -transportout /tmp/bench_transport.$$.json
rm -f /tmp/bench_transport.$$.json

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
"$smoke/mphrun" -hosts nodeA:2,nodeB:2 -backend exec -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in
grep -q "period" "$smoke/coupler.log"

# Hierarchical-collective smoke: same job, uneven 3+2 placement, hier forced.
MPH_COLL_HIER=1 "$smoke/mphrun" -hosts nodeA:3,nodeB:2 -backend exec -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/hier.out"
grep -q "totals reconcile" "$smoke/hier.out"
grep -Eq "collective routing: .* hier=[1-9]" "$smoke/hier.out"

# Shm-channel smoke: all 5 ranks on one host, rendezvous forced so payloads
# are eligible for the intra-host channel.
MPH_EAGER_THRESHOLD=0 "$smoke/mphrun" -hosts nodeA:5 -backend exec -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
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
    -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/daemon.out"
grep -q "totals reconcile" "$smoke/daemon.out"

# L1 smoke: one repetition of the gang-launch latency sweep, so the
# launch-latency harness (worker mode, agent dispatch, in-process daemon)
# stays executable.
go run ./cmd/mphbench -exp L1 -repeat 1 -launchout /tmp/bench_launch.$$.json
rm -f /tmp/bench_launch.$$.json

# Telemetry smoke: the same job, paced to ~2s of wall-clock (the unpaced
# grid finishes in milliseconds — too fast to scrape), with live reporting.
# The poller starts first (it retries until the launcher's -http server is
# up) and must see per-rank Prometheus series while the job runs, then the
# -stats summary must reconcile job-wide.
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
"$smoke/mphrun" -hosts nodeA:2,nodeB:2 -backend exec -placement block -stats \
    -stats-interval 100ms -http 127.0.0.1:7399 \
    -cmdfile "$smoke/telejob.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/telemetry.out"
wait "$poller"
grep -q "mph_job_ranks_expected 5" "$smoke/metrics.out"
grep -q "totals reconcile" "$smoke/telemetry.out"

# Non-test Go lines outside benchmark/ (20,309 before the two-level
# collectives became compositions of the flat ones behind one selector, 19,771
# after; internal/mpi itself 4,292 -> 3,739, collective_hier.go 838 -> 217),
# and the stripped size of a component executable (3,551,524 bytes before,
# 3,522,852 after) — the next PR's baselines.
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
go build -ldflags='-s -w' -o "$smoke/climate.stripped" ./examples/climate
wc -c < "$smoke/climate.stripped"
