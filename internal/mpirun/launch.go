// Package mpirun is the launcher of a true multi-executable (MPMD) job:
// LaunchSpec describes a placed job and Launch runs it, locally or across
// hosts, through a Spawner (direct fork, or exec/ssh agents speaking the
// block protocol), with the telemetry aggregator and its HTTP surface beside
// it. What a rank and the launcher must agree on —
// the MPH_* environment and the session each rank holds with the launcher —
// lives in the leaf package bootstrap, which this package imports and a rank
// links instead of this one. The launcher dials nothing but its spawners'
// carriers: every rank comes to it.
//
// The launcher plays the role of the paper's vendor MPP-run command
// ("poe -pgmmodel mpmd -cmdfile ..." on the IBM SP, §6): it assigns
// contiguous world-rank blocks to the executables of a cmdfile, places each
// rank on a host (block placement over a hostfile, or pinned), then
// acts as the rendezvous point through which every rank learns every other
// rank's listen address and host. After rendezvous the launcher is out of
// the data path: ranks talk directly over their own TCP connections, and —
// exactly as the paper describes — share nothing but the world communicator
// until MPH hands them component communicators. Each rank's rendezvous
// connection stays open as its session, which carries only clock sync,
// telemetry reports and aborts.
package mpirun

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"mph/internal/bootstrap"
	"mph/internal/sock"
)

// Launch defaults, applied when the corresponding LaunchSpec field is zero.
const (
	// DefaultTimeout bounds the rendezvous exchange.
	DefaultTimeout = 120 * time.Second
	// DefaultGrace is how long survivors of a failed rank get to exit
	// after the abort broadcast before their process groups are killed.
	DefaultGrace = 5 * time.Second
)

// Launch runs a placed MPMD job to completion: it opens every placement
// host through the spec's Spawner, starts the rendezvous, spawns each host's
// rank block on its opened host, supervises the job, and returns nil only
// if every rank exited cleanly.
//
// Failure semantics span hosts: a rank that exits before the world is wired
// cancels the rendezvous and fails the job immediately; after wiring, a
// rank's session ending is its death, which the rendezvous tells every other
// rank at once (their MPI calls naming it return mpi.ErrPeerLost), and the
// first abnormal exit triggers an abort on every surviving rank's session
// (their blocked MPI calls return mpi.ErrAborted), and once spec.Grace
// expires the remaining process groups are killed — through the host's agent
// or daemon for ranks on other hosts. Canceling ctx aborts and kills the job
// the same way and returns ctx.Err(). Launch returns once every rank has
// been reaped and every session has ended, so spec.Telemetry holds every
// final report a rank sent.
func Launch(ctx context.Context, spec *LaunchSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	sp := spec.Spawner
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	grace := spec.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}

	// Reach every placement host before anything spawns, and fail fast with
	// a per-host report instead of burning the rendezvous timeout to find
	// out. Whatever is not spawned on is hung up on the way out.
	hosts := spec.Hosts()
	conns, err := openHosts(ctx, sp, hosts)
	if err != nil {
		return err
	}
	defer closeHosts(conns)

	total := len(spec.Procs)
	rvBind := spec.Bind
	if rvBind == "" && sp.routable {
		// Remote ranks must be able to dial back; loopback would strand them.
		rvBind = "0.0.0.0"
	}
	rvBind, err = resolveBind(ctx, rvBind)
	if err != nil {
		return err
	}
	var every time.Duration
	var ingest bootstrap.Ingest
	if spec.Telemetry != nil {
		every, ingest = spec.Telemetry.every, spec.Telemetry.ingestReport
	}
	rv, err := bootstrap.NewRendezvousBind(rvBind, total, every, ingest)
	if err != nil {
		return err
	}
	if spec.Telemetry != nil {
		spec.Telemetry.setStacks(rv.Stacks)
		defer spec.Telemetry.setStacks(nil)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(timeout) }()

	blocks, err := hostBlocks(spec, hosts, sp, rv.Advertised(), rvBind)
	if err != nil {
		rv.Close()
		<-serveErr
		return err
	}

	if !spec.Quiet {
		fmt.Fprintf(os.Stderr, "mphrun: world of %d ranks across %d executable(s) on %d host(s) [%s backend]; rendezvous %s\n",
			total, countExes(spec), len(hosts), sp.Name(), rv.Advertised())
	}

	var handles []*blockHandle
	rankHandle := make(map[int]*blockHandle, total)
	killAll := func() {
		for _, h := range handles {
			h.kill(-1)
		}
	}
	waitAll := func() {
		for _, h := range handles {
			<-h.done
		}
	}
	results := make(chan rankExit, total)
	for i, block := range blocks {
		h, err := conns[i].spawn(block)
		if err != nil {
			rv.Close()
			killAll()
			waitAll()
			<-serveErr
			return fmt.Errorf("spawn on host %q: %w", hosts[i], err)
		}
		handles = append(handles, h)
		for _, p := range block.Procs {
			rankHandle[p.Rank] = h
		}
		go func() {
			for e := range h.exits {
				results <- e
			}
		}()
	}

	// Exit bookkeeping; everything below runs on this goroutine only.
	exitErr := make([]error, total)
	exited := make([]bool, total)
	reaped := 0
	primary := -1 // first abnormally-exiting rank reaped; the report's is causal
	record := func(r rankExit) {
		reaped++
		exited[r.rank] = true
		exitErr[r.rank] = r.err
		if r.err != nil && primary < 0 {
			primary = r.rank
		}
	}
	drainRest := func() {
		for reaped < total {
			record(<-results)
		}
		waitAll()
	}

	// Phase 1: wait for the world to wire up, watching for children that
	// die first and for ctx cancellation.
	wired := false
	for !wired {
		select {
		case <-ctx.Done():
			rv.Close()
			<-serveErr
			killAll()
			drainRest()
			return ctx.Err()
		case err := <-serveErr:
			if err != nil {
				killAll()
				drainRest()
				return fmt.Errorf("rendezvous: %w", err)
			}
			wired = true
		case r := <-results:
			// A fast job can finish a rank between the rendezvous reply
			// and Serve's return; check for that before declaring the
			// exit premature.
			select {
			case err := <-serveErr:
				if err != nil {
					record(r)
					killAll()
					drainRest()
					return fmt.Errorf("rendezvous: %w", err)
				}
				wired = true
				record(r)
			default:
				// A rank exited before the world was wired — whatever its
				// status, the job cannot proceed. Cancel the rendezvous so
				// Serve returns now rather than waiting out the full
				// timeout with the launcher blocked behind it.
				record(r)
				rv.Close()
				if err := <-serveErr; err == nil {
					// Serve completed in the closing window after all; the
					// world is wired, supervise normally.
					wired = true
					break
				}
				killAll()
				drainRest()
				if r.err != nil {
					return fmt.Errorf("rank %d exited before rendezvous completed: %w", r.rank, r.err)
				}
				return fmt.Errorf("rank %d exited before rendezvous completed", r.rank)
			}
		}
	}

	// Phase 2: supervise the running job. On the first abnormal exit, abort
	// every survivor's session so its blocked MPI calls — on every host —
	// fail with mpi.ErrAborted, then give them grace to exit on their own
	// before killing the remaining process groups (through the agents or
	// daemons for remote ranks).
	aborted := false
	var graceCh <-chan time.Time
	maybeAbort := func() {
		if primary < 0 || aborted {
			return
		}
		aborted = true
		survivors := 0
		for rank := range spec.Procs {
			if !exited[rank] {
				survivors++
			}
		}
		if survivors == 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "mphrun: rank %d%s failed; aborting %d surviving rank(s) (grace %v)\n",
			primary, hostTag(spec.Procs[primary].Host), survivors, grace)
		rv.Abort(1)
		graceCh = time.After(grace)
	}
	maybeAbort()
	canceled := false
	for reaped < total {
		select {
		case <-ctx.Done():
			if !canceled {
				canceled = true
				rv.Abort(1)
				killAll()
			}
			record(<-results)
		case r := <-results:
			record(r)
			maybeAbort()
		case <-graceCh:
			graceCh = nil
			fmt.Fprintln(os.Stderr, "mphrun: grace period expired; killing surviving process groups")
			for rank := range spec.Procs {
				if !exited[rank] {
					rankHandle[rank].kill(rank)
				}
			}
		}
	}
	waitAll()
	rv.Close()
	if canceled {
		return ctx.Err()
	}
	// The first failure is causal, not the first reaped: a survivor can exit
	// on a down line before the rank it reacted to is reaped. So it is the
	// abnormally exited rank whose session ended first.
	for _, rank := range rv.Ended() {
		if exitErr[rank] != nil {
			primary = rank
			break
		}
	}
	return failureReport(spec, exitErr, primary)
}

// resolveBind turns a host-name bind into one IP, IPv4 first as net.Listen
// picks, which the rendezvous binds and advertises and every rank receives
// as MPH_BIND: ranks resolve no names. "", "*" and IP literals pass as they
// are.
func resolveBind(ctx context.Context, bind string) (string, error) {
	if _, ok := sock.ParseHost(bind); ok || bind == "" || bind == "*" {
		return bind, nil
	}
	ips, err := net.DefaultResolver.LookupNetIP(ctx, "ip", bind)
	if err != nil {
		return "", fmt.Errorf("mpirun: resolve bind host: %w", err)
	}
	for _, ip := range ips {
		if ip.Unmap().Is4() {
			return ip.Unmap().String(), nil
		}
	}
	return ips[0].String(), nil // a lookup without error found an address
}

// hostBlocks groups the spec's ranks into one block per host of hosts, in
// that order, and fills in the job-wide launch context each spawner needs.
// The registration file is shipped both ways — as the launcher-local path
// (for the direct spawner) and as its contents (for spawners that cross a
// host boundary).
func hostBlocks(spec *LaunchSpec, hosts []string, sp Spawner, rvAddr, bind string) ([]Block, error) {
	regdata := ""
	if spec.Registration != "" {
		if sp.dial != nil {
			data, err := os.ReadFile(spec.Registration)
			if err != nil {
				return nil, fmt.Errorf("mpirun: read registration: %w", err)
			}
			regdata = string(data)
		}
	}
	base := Block{
		Size:         len(spec.Procs),
		Rendezvous:   rvAddr,
		Registration: spec.Registration,
		Regdata:      regdata,
		Bind:         bind,
		ExtraEnv:     spec.ExtraEnv,
		Passthrough:  passthroughEnv(os.Environ()),
	}
	blocks := make([]Block, len(hosts))
	index := make(map[string]int, len(hosts))
	for i, host := range hosts {
		blocks[i] = base
		index[host] = i
	}
	for _, p := range spec.Procs {
		b := &blocks[index[p.Host]]
		b.Procs = append(b.Procs, p)
	}
	return blocks, nil
}

// openHosts opens every placement host concurrently through the spawner.
// If any cannot be opened, it closes the rest and returns a per-host
// failure report.
func openHosts(ctx context.Context, sp Spawner, hosts []string) ([]*HostConn, error) {
	conns := make([]*HostConn, len(hosts))
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, host := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conns[i], errs[i] = sp.open(ctx, host)
		}()
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Sprintf("  %s: %v", hostLabel(hosts[i]), err))
		}
	}
	if len(bad) == 0 {
		return conns, nil
	}
	closeHosts(conns)
	return nil, fmt.Errorf("mpirun: host check failed for %d of %d host(s):\n%s",
		len(bad), len(hosts), strings.Join(bad, "\n"))
}

// closeHosts hangs up every opened host nothing was spawned on.
func closeHosts(conns []*HostConn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// countExes returns the number of distinct spec entries among the procs.
func countExes(spec *LaunchSpec) int {
	max := -1
	for _, p := range spec.Procs {
		if p.Exe > max {
			max = p.Exe
		}
	}
	return max + 1
}

// hostLabel names a placement host in reports, "" as "(launcher host)".
func hostLabel(host string) string {
	if host == "" {
		return "(launcher host)"
	}
	return host
}

// hostTag renders "@host" for remote ranks, "" for local ones.
func hostTag(host string) string {
	if host == "" {
		return ""
	}
	return "@" + host
}

// failureReport summarises abnormal exits grouped per component executable,
// or returns nil when every rank exited cleanly. primary is the first failure
// (-1 if none); the others typically failed as collateral — on its down line,
// aborted by the launcher or killed after the grace period.
func failureReport(spec *LaunchSpec, exitErr []error, primary int) error {
	failed := 0
	for _, err := range exitErr {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "job failed: %d of %d rank(s) exited abnormally", failed, len(spec.Procs))
	for ei := 0; ei < countExes(spec); ei++ {
		var bad []string
		ranks := 0
		var argv []string
		for _, p := range spec.Procs {
			if p.Exe != ei {
				continue
			}
			ranks++
			if argv == nil {
				argv = p.Argv
			}
			if exitErr[p.Rank] == nil {
				continue
			}
			s := fmt.Sprintf("rank %d%s: %v", p.Rank, hostTag(p.Host), exitErr[p.Rank])
			if p.Rank == primary {
				s += " (first failure)"
			}
			bad = append(bad, s)
		}
		status := "ok"
		if len(bad) > 0 {
			status = strings.Join(bad, "; ")
		}
		fmt.Fprintf(&b, "\n  exe%d [%s] (%d rank(s)): %s", ei, strings.Join(argv, " "), ranks, status)
	}
	return errors.New(b.String())
}
