#!/bin/sh
# Static guards, shared by scripts/check.sh and .github/workflows/check.yml:
# greps and package listings over the tree, nothing is built or run. Each
# "if grep ...; then exit 1" is an if because set -e does not act on a "!"
# pipeline.
set -eu
cd "$(dirname "$0")/.."

# Removed names stay removed: the second remote-spawn implementation and the
# Backend shim (PR 12), the shm-ack reverse dial (PR 13), launcher names on the
# rank side (PR 14), tcpnet's test-only second decoder and per-carrier
# write/drop/sever copies (PR 15), the segmented two-level collectives with
# their knob and the two-level Reduce and Allgather (PR 16), the rendezvous
# completion that took a transport-made buffer (PR 19: ReceiveRendezvous reads
# into the receive's own), the send layer's defensive copy with the capability
# that let tcpnet skip it and the pool of blocking-Recv records (PR 20: Deliver
# borrows from every sender, posted records live in their requests or on the
# engine's free list), and the MPI nothing called (Ssend with its ack
# frame, counters and goroutine, Probe with the engine's probe waiters, the
# scans, the nonblocking helpers, the communicator helpers), and what only its
# own tests and demos called (the made-up ranks-per-node topology and the
# Remap wrappers, field migration, checkpoint files, the tracer model, the
# column decomposition with its transpose, the CSV history), and the matching
# engine's envelope index with its sweep and the pvars that classified which
# index path a match took, and the collective duration histogram nothing read
# (the engine's queues are two FIFO lists), and the MPI only tests called
# (the allgather behind Split with its Bruck size exchange, ring and framing,
# its selector row and crossover, and the span depth that nested Split's
# allgather under it), the ring allreduce no caller's payload reached, with
# its crossover, its per-rank pin and its algorithm id, and the histogram no
# binary called, and the band-range chunks with the one-chunk-at-a-time
# receive and send (a pair's range moves as one message the receiver folds
# and the sender fills). The tokens are chosen so they cannot hit
# benchmark/'s job.Probe.
if grep -rn 'agent-exec\|BackendExec\|NewSpawner(\|kindShmAck\|shmAckFrame\|maybeOfferShm\|shmOffered\|perf\.Handler\|perf\.PprofMux\|mpirun\.RegisterEndpoint\|mpirun\.EnvFromOS\|mpirun\.SendAbort\|mpirun\.DialTelemetry\|decodePacket\|decodeRTS\|decodeRData\|readFrame(\|sendv(\|shmOutConn\|dropShmConn\|severShm\|shmPeerDown\|EnvCollSegment\|DefaultCollSegment\|MPH_COLL_SEGMENT\|segmentBounds\|prependTotal\|recvSegmented\|bcastHierLeader\|allreduceHierOpaque\|allgatherHier\|\<reduceHier\|tagHierFeed\|TransferBundle\|BundleSpec\|FinishRendezvous\|payloadBorrower\|BorrowsPayload\|precvPool\|\.Ssend(\|\.IProbe(\|\.Isend(\|mpi\.WaitAll\|kindAck\|frameAck\|AcksOut\|ackWhenMatched\|notifyProbes\|pwaitList\|ExclusiveScanInts\|SplitByHost\|RankOfWorld\|IrecvFloatsInto\|NodeComm\|ComponentsOnNode\|SharesNode\|RemapSingle\|RemapMultiInstance\|MigrateField\|LoadCheckpoint\|TracerModel\|NewColDecomp\|xfer\.Transpose\|ParseHistory\|WriteHistory\|matchKey\|ubuckets\|pbuckets\|sweepThreshold\|pbucketLookup\|ubucketLookup\|MatchesWildcard\|MatchesExact\|HistNanos\|CollHistBuckets\|allgatherRing\|exchangeSizes\|frameSlices\|tagCollSizes\|CollAllgather\|DefaultRingThreshold\|collDepth\|allreduceRing\|allreduceRingFrom\|ringFrom\|SetRingThreshold\|AlgRing\|tagRingReduce\|NewHistogram\|chunkBytes\|ChunkBytes\|StartEach\|SendEach\|MaxSegment' --include=*.go .; then
    exit 1
fi
# One micro-benchmark surface (PR 18): the table-printing second harness, its
# scenario package and its four JSON snapshots stay out of code and docs
# alike, and so do the history tool and the two demo examples deleted with
# the code they showed. The change-history documents are exempt.
if grep -rn 'mphbench\|internal/bench\|BENCH_[a-z]*\.json\|mphhistory\|examples/spectral\|examples/remap' \
    --exclude-dir=.git --exclude-dir=.bench_build --exclude=guards.sh \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=REVIEW.md .; then
    exit 1
fi
# One connection between a rank and its launcher: the text registration wire,
# the telemetry listener's client, the abort a launcher dialed into a rank's
# listener, the stats files, and the three variables that switched the second
# channel and the files on stay out of the code and the user documents (the
# variables are spelled so that this file does not name them).
if grep -rn 'RegisterEndpoint\|DialTelemetry\|TelemetryClient\|SendAbort\|AbortFrameKind\|bookReply\|EnvTelemetry\|EnvStatsDir\|EnvStatsInterval\|MPH_\(TELEMETRY\|STATS_DIR\|STATS_INTERVAL\)' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go \
    README.md DESIGN.md OPERATIONS.md EXPERIMENTS.md; then
    exit 1
fi
# Algorithm and protocol choice is code, not environment: the variables that
# picked a collective algorithm, the eager/rendezvous switch and the
# intra-host channel, their Go names, the boolean parser only they used, the
# channel's forced mode and the pool cap that followed the threshold stay out
# of the code, the scripts and the user documents (the variables are spelled
# so that this file does not name them).
if grep -rn 'EnvCollHier\|EnvCollRingThreshold\|EnvEagerThreshold\|EnvShm\|EnvBool\|shmForce\|shmFromEnv\|pooledFrameCap\|MPH_\(COLL_HIER\|COLL_RING_THRESHOLD\|EAGER_THRESHOLD\|SHM\)' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go \
    README.md DESIGN.md OPERATIONS.md; then
    exit 1
fi
# The launcher decides who is dead: the heartbeat frame and its loop and
# counters, the read-silence deadline, the suspicion timer and the two
# variables that tuned them stay out of the code, the scripts and the user
# documents (the variables are spelled so that this file does not name them).
if grep -rn 'kindHeartbeat\|heartbeatLoop\|HeartbeatsOut\|HeartbeatsIn\|suspectLost\|clearSuspect\|deadlineReader\|idleFor\|EnvHeartbeat\|EnvPeerTimeout\|MPH_\(HEARTBEAT\|PEER_TIMEOUT\)' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go \
    README.md DESIGN.md OPERATIONS.md; then
    exit 1
fi
# A rank listens on no debug port: the per-rank HTTP responder, its address
# arithmetic, its request parser, and the variable that switched it on stay
# out of the code, the scripts and the user documents; the launcher asks a
# rank over its session (the variable is spelled so that this file does not
# name it). FuzzDebugRequest now fuzzes the launcher's /rank/R/ endpoints.
if grep -rn 'perf\.Serve\|DebugServer\|DebugAddr\|parseDebugRequest\|debugSrv\|MPH_\(DEBUG_ADDR\)' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go \
    README.md DESIGN.md OPERATIONS.md; then
    exit 1
fi
# The launcher reaches each host once: the separate probe (its interface,
# its method and its dial-and-hang-up) and the cyclic placement policy with
# its parser and its flag stay out of the code, the scripts and the user
# documents. The tokens are chosen so they cannot hit benchmark/'s job.Probe.
if grep -rn -e 'HostProber\|ProbeHost\|probeRemote\|PlaceCyclic\|ParsePlacement\|-placement\|"placement"' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go \
    README.md DESIGN.md OPERATIONS.md; then
    exit 1
fi
# One record framing for the launch plane (package wire): the session, the
# block protocol and the trace dump are all binary records, so the line-JSON
# framing with its cap and its error, the JSONL trace dump with its line
# types and parser, and the raw-JSON snapshot field stay out of the code and
# the scripts.
if grep -rn 'LineConn\|ErrBadLine\|MaxLineBytes\|ParseTraceLine\|WriteJSONL\|metaLine\|eventLine\|json\.RawMessage' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go; then
    exit 1
fi
# The tracer is one ring and one span pair: the shards with their sizing,
# the per-facility begin/end kinds and the closure-returning phase marker
# stay out of the code and the scripts.
if grep -rn 'tracerShard\|tracerMaxShards\|KCollEnter\|KPhaseBegin\|KCollPhaseBegin\|TracePhase' \
    --exclude=guards.sh cmd internal examples benchmark scripts .github doc.go; then
    exit 1
fi
# The allocation numbers move because nothing is allocated, not because the
# collector was retuned: no GC knob in non-test code, in the scripts, or in an
# environment a launcher builds for its ranks.
if grep -rn 'SetGCPercent\|SetMemoryLimit\|FreeOSMemory\|GOGC\|GOMEMLIMIT' \
    --include=*.go --include=*.sh --include=*.yml --exclude=*_test.go --exclude=guards.sh \
    --exclude-dir=.git --exclude-dir=.bench_build .; then
    exit 1
fi
# One selector: exactly one non-test file of internal/mpi counts an algorithm.
test "$(grep -l 'pv\.CollAlgo(' internal/mpi/*.go | grep -vc _test.go)" = 1
# Link budget: nothing a rank is built from may pull in net (whose cgo
# resolver links libc and the dynamic loader into every rank), runtime/cgo,
# the HTTP/TLS stack, process spawning, the launcher, a profiler with the
# compression and table writer behind it, or encoding/json: every record a
# rank writes or reads is package wire's (DESIGN.md §14, "What a rank
# links"). Nor what a rank needs only a few lines of: net/netip with the
# unique and weak packages behind it (package sock parses IP literals), log
# (core.Logger), math/rand (math/rand/v2), hash/fnv (deriveContext inlines
# FNV-1a) and bufio (a trace dump is one buffer), nor runtime/metrics
# (a snapshot counts GC cycles through runtime/debug and reads RssAnon from
# /proc). internal/mpi/mpitest is test support, which links testing.
if go list -deps ./internal/mpi ./internal/mpi/perf ./internal/mpi/tcpnet ./internal/core ./internal/coupler ./examples/... |
    grep -x 'net\|runtime/cgo\|net/http\|crypto/tls\|os/exec\|mph/internal/mpirun\|runtime/pprof\|runtime/trace\|compress/flate\|text/tabwriter\|encoding/json\|net/netip\|unique\|weak\|log\|math/rand\|hash/fnv\|bufio\|runtime/metrics'; then
    exit 1
fi
test -z "$(gofmt -l .)"
