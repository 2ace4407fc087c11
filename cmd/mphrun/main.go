// Command mphrun is the MPMD launcher for multi-executable MPH jobs — the
// stand-in for the vendor commands the paper enumerates ("poe -pgmmodel
// mpmd -cmdfile" on IBM SP, the analogous commands on Compaq AlphaSC and
// SGI Origin, §6). It reproduces their defining behaviour: all executables
// of the job share one world communicator with contiguous, non-overlapping
// rank blocks, and beyond that nothing — component handshaking is MPH's
// job, not the launcher's.
//
// Usage:
//
//	mphrun -cmdfile job.cmd [-registration processors_map.in] [-timeout 120s]
//	mphrun [flags] N cmd [args] : N cmd [args] ...
//
// The cmdfile lists one executable per line, IBM SP style, with an optional
// host pin between the count and the command:
//
//	# nprocs [host=NAME] command [args...]
//	3 ./atm -flag
//	2 host=node-b ./ocn
//	1 ./coupler
//
// mphrun assigns world ranks 0-2 to atm, 3-4 to ocn, 5 to coupler, starts a
// rendezvous, spawns every process with MPH_RANK / MPH_NPROCS /
// MPH_RENDEZVOUS / MPH_REGISTRATION set, prefixes each process's output
// with its rank, and exits non-zero if any process fails.
//
// # Multi-host jobs
//
// A hostfile (-hostfile, one "host [slots=N]" per line) or inline host list
// (-hosts node-a:2,node-b) places unpinned ranks across hosts in blocks,
// filling each host's slots before the next; host= pins override that. Each
// host's ranks are spawned as one block by whatever serves the block
// protocol there: an "mphrun agent" started via ssh (the default) or locally
// (-backend exec, single-machine testing of the multi-host path), or a
// persistent mphd (-backend daemon). See OPERATIONS.md for the full story.
//
// When a rank exits abnormally mid-job, mphrun broadcasts a launcher abort
// to the surviving ranks on every host (their blocked MPI calls return
// mpi.ErrAborted), waits -grace for them to exit on their own, kills the
// remaining process groups — through the host's agent or daemon for remote
// ranks — and reports the failures grouped per component executable.
// Exit status: 0 success, 1 job or launcher failure, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"mph/internal/mpi/perf"
	"mph/internal/mpirun"
)

func main() {
	// "mphrun agent" serves one block-protocol connection on stdin/stdout
	// for a launcher on the other end of a pipe or ssh session, then exits.
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		mpirun.ServeAgent()
		return
	}

	cmdfile := flag.String("cmdfile", "", "MPMD command file")
	registration := flag.String("registration", "", "registration file forwarded to every process")
	timeout := flag.Duration("timeout", mpirun.DefaultTimeout, "rendezvous timeout")
	grace := flag.Duration("grace", mpirun.DefaultGrace, "after a rank fails, how long survivors get to exit before their process groups are killed")
	stats := flag.Bool("stats", false, "collect per-rank performance variables and print a per-component summary at job end")
	statsInterval := flag.Duration("stats-interval", 0, "how often each rank pushes a live telemetry report to the launcher (0 = final report only)")
	httpAddr := flag.String("http", "", "serve the live job view on this address while the job runs: Prometheus /metrics, JSON /status, each rank's /rank/R/perf and /rank/R/stacks, and the launcher's own profiles at /debug/pprof")
	traceDir := flag.String("trace", "", "directory for per-rank event traces (trace.rank*.jsonl, mergeable with mphtrace)")
	hostfile := flag.String("hostfile", "", "hostfile for multi-host placement (one \"host [slots=N]\" per line)")
	hostList := flag.String("hosts", "", "inline host list for multi-host placement (\"node-a:2,node-b\")")
	backendName := flag.String("backend", "", "spawn backend: local, exec, ssh, or daemon (default: ssh when hosts are given, local otherwise)")
	bind := flag.String("bind", "", "host or IP the rendezvous and rank listeners bind (default: loopback, or all interfaces for ssh/daemon)")
	agentPath := flag.String("agent", "", "mphrun binary to run as each host's agent (default: this executable; must exist on every remote host)")
	daemonPort := flag.Int("daemon-port", mpirun.DefaultDaemonPort, "mphd control port on every host for the daemon backend")
	daemonAddr := flag.String("daemon-addr", "", "send every rank block to this one mphd address regardless of host (single-machine testing of the daemon backend)")
	var sshOptions []string
	flag.Func("sshopt", "extra ssh option for the ssh backend (repeatable, e.g. -sshopt -i -sshopt key.pem)", func(v string) error {
		sshOptions = append(sshOptions, v)
		return nil
	})
	flag.Parse()

	var entries []mpirun.Entry
	var err error
	switch {
	case *cmdfile != "" && flag.NArg() > 0:
		err = fmt.Errorf("give either -cmdfile or a colon-separated command line, not both")
	case *cmdfile != "":
		entries, _, err = mpirun.ParseCmdfile(*cmdfile)
	case flag.NArg() > 0:
		entries, _, err = mpirun.ParseColonSpec(flag.Args())
	default:
		fmt.Fprintln(os.Stderr, "mphrun: need -cmdfile FILE, or: mphrun [flags] N cmd [args] : N cmd [args] ...")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphrun: %v\n", err)
		os.Exit(1)
	}

	var hosts []mpirun.HostSlot
	switch {
	case *hostfile != "" && *hostList != "":
		err = fmt.Errorf("give either -hostfile or -hosts, not both")
	case *hostfile != "":
		hosts, err = mpirun.ParseHostfile(*hostfile)
	case *hostList != "":
		hosts, err = mpirun.ParseHostList(*hostList)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphrun: %v\n", err)
		os.Exit(1)
	}
	placed := len(hosts) > 0
	for _, e := range entries {
		placed = placed || e.Host != ""
	}
	var spawner mpirun.Spawner
	switch {
	case *backendName == "local", *backendName == "" && !placed:
		spawner = mpirun.NewLocalSpawner()
	case *backendName == "exec":
		spawner = mpirun.NewExecSpawner(*agentPath)
	case *backendName == "ssh", *backendName == "":
		spawner = mpirun.NewSSHSpawner(*agentPath, sshOptions)
	case *backendName == "daemon":
		spawner = mpirun.NewDaemonSpawner(*daemonAddr, *daemonPort)
	default:
		fmt.Fprintf(os.Stderr, "mphrun: unknown backend %q (want local, exec, ssh, or daemon)\n", *backendName)
		os.Exit(1)
	}

	spec, err := mpirun.NewLaunchSpec(entries, hosts, mpirun.PlaceBlock)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphrun: %v\n", err)
		os.Exit(1)
	}
	spec.Registration = *registration
	spec.Timeout = *timeout
	spec.Grace = *grace
	spec.Bind = *bind
	spec.Spawner = spawner

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mphrun: %v\n", err)
			os.Exit(1)
		}
		spec.ExtraEnv = append(spec.ExtraEnv, perf.EnvTraceDir+"="+*traceDir)
	}

	// The telemetry plane rides along whenever any observability output is
	// requested: -http and -stats-interval need it for live reports, -stats
	// for the final ones, and -trace for the clock sync the ranks run with
	// it (clock offsets end up in the snapshots and trace metadata, which is
	// what lets mphtrace align per-host timelines).
	if *httpAddr != "" || *statsInterval > 0 || *stats || *traceDir != "" {
		if spec.Telemetry, err = mpirun.NewTelemetry(len(spec.Procs), *statsInterval); err != nil {
			fmt.Fprintf(os.Stderr, "mphrun: %v\n", err)
			os.Exit(1)
		}
	}
	if *httpAddr != "" {
		srv := &http.Server{Addr: *httpAddr, Handler: spec.Telemetry.Handler()}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mphrun: -http: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "mphrun: live job view on http://%s/status (Prometheus /metrics, per rank /rank/R/perf and /rank/R/stacks, the launcher's profiles /debug/pprof)\n", ln.Addr())
	}

	if err := mpirun.Launch(context.Background(), spec); err != nil {
		fmt.Fprintf(os.Stderr, "mphrun: %v\n", err)
		// A failed job still has a story to tell: print whatever the
		// telemetry plane collected before the crash.
		if *stats {
			if snaps := spec.Telemetry.Snapshots(); len(snaps) > 0 {
				fmt.Fprintf(os.Stderr, "mphrun: post-mortem telemetry (%d of %d rank(s) reported):\n",
					len(snaps), len(spec.Procs))
				printStats(os.Stderr, snaps, len(spec.Procs))
			}
		}
		os.Exit(1)
	}
	if *stats {
		snaps := spec.Telemetry.Snapshots()
		printStats(os.Stdout, snaps, len(spec.Procs))
		printStragglers(os.Stdout, snaps)
	}
	if *traceDir != "" {
		fmt.Fprintf(os.Stderr, "mphrun: event traces in %s (merge with: mphtrace -o trace.json %s)\n",
			*traceDir, *traceDir)
	}
}
