// Climate: the paper's motivating application — a CCSM-style coupled
// system of atmosphere, ocean, land, sea-ice, and a flux coupler (§1, §7).
//
// Two launch modes:
//
//  1. In-process (default): one OS process simulates the whole MPMD job.
//
//     go run ./examples/climate -periods 12
//
//  2. True multi-executable, under mphrun (SCME mode): build this binary
//     once and list it five times in a cmdfile, one component per line —
//     the same binary serves every component because nothing is
//     hard-coded (paper §4.1).
//
//     go build -o /tmp/climate ./examples/climate
//     mkdir -p /tmp/logs
//     cat > job.cmd <<'EOF'
//     3 /tmp/climate -component atmosphere -logdir /tmp/logs
//     2 /tmp/climate -component ocean      -logdir /tmp/logs
//     2 /tmp/climate -component land       -logdir /tmp/logs
//     1 /tmp/climate -component ice        -logdir /tmp/logs
//     2 /tmp/climate -component coupler    -logdir /tmp/logs
//     EOF
//     go run ./cmd/mphrun -cmdfile job.cmd -registration examples/climate/processors_map.in
//
// Each coupling period the models advance internally, ship their surface
// fields to the coupler through MPH-joined communicators, receive flux
// increments back, and the coupler logs global diagnostics to coupler.log
// (paper §5.4) under -logdir. In-process, -logdir defaults to a fresh
// temporary directory whose path the run prints; under mphrun it is
// required, since every rank must name the same directory.
package main

import (
	"flag"
	"fmt"
	"os"

	"mph/internal/bootstrap"
	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/mpi"
	"mph/internal/mpi/tcpnet"
)

const registration = `
BEGIN
atmosphere
ocean
land
ice
coupler
END
`

// launchPlan is the in-process stand-in for the cmdfile's rank blocks:
// 3 atm, 2 ocn, 2 lnd, 1 ice, 2 cpl on a 10-rank world.
func launchPlan(rank int) string {
	switch {
	case rank < 3:
		return "atmosphere"
	case rank < 5:
		return "ocean"
	case rank < 7:
		return "land"
	case rank < 8:
		return "ice"
	default:
		return "coupler"
	}
}

func main() {
	component := flag.String("component", "", "component name (multi-executable mode)")
	nlat := flag.Int("nlat", 24, "latitude bands of the coupling grid")
	nlon := flag.Int("nlon", 8, "longitude bands of the coupling grid")
	periods := flag.Int("periods", 8, "coupling periods")
	substeps := flag.Int("substeps", 4, "model steps per period")
	dt := flag.Float64("dt", 0.5, "model time step")
	pace := flag.Duration("pace", 0, "sleep per coupling period, to stretch the run to wall-clock time for live-telemetry demos")
	logDir := flag.String("logdir", "", "directory for component log files (in-process default: a new temporary directory)")
	flag.Parse()

	g, err := grid.New(*nlat, *nlon)
	if err != nil {
		fmt.Fprintf(os.Stderr, "climate: %v\n", err)
		os.Exit(1)
	}
	cfg := coupler.Config{Grid: g, Periods: *periods, SubSteps: *substeps, Dt: *dt,
		Pace: *pace, Names: coupler.DefaultNames()}

	if bootstrap.Launched() {
		if err := runDistributed(*component, cfg, *logDir); err != nil {
			fmt.Fprintf(os.Stderr, "climate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runInProcess(cfg, *logDir); err != nil {
		fmt.Fprintf(os.Stderr, "climate: %v\n", err)
		os.Exit(1)
	}
}

// runDistributed is one executable of a real MPMD job.
func runDistributed(component string, cfg coupler.Config, logDir string) error {
	if component == "" {
		return fmt.Errorf("-component is required under mphrun")
	}
	if logDir == "" {
		return fmt.Errorf("-logdir is required under mphrun")
	}
	env, regPath, err := tcpnet.InitFromEnv()
	if err != nil {
		return err
	}
	defer env.Close()
	world := mpi.WorldComm(env)

	src := core.TextSource(registration)
	if regPath != "" {
		src = core.FileSource(regPath)
	}
	s, err := core.SingleComponentSetup(world, src, component, core.WithLogDir(logDir))
	if err != nil {
		return err
	}
	if err := runComponent(s, cfg); err != nil {
		return err
	}
	return world.Barrier() // drain before teardown
}

// runInProcess simulates the whole job in one process.
func runInProcess(cfg coupler.Config, logDir string) error {
	if logDir == "" {
		dir, err := os.MkdirTemp("", "climate-logs-")
		if err != nil {
			return err
		}
		logDir = dir
	}
	err := mpi.RunWorld(10, func(c *mpi.Comm) error {
		name := launchPlan(c.Rank())
		s, err := core.SingleComponentSetup(c, core.TextSource(registration), name,
			core.WithLogDir(logDir))
		if err != nil {
			return err
		}
		return runComponent(s, cfg)
	})
	fmt.Printf("component logs in %s\n", logDir)
	return err
}

// runComponent is the shared body: coupled run plus logging.
func runComponent(s *core.Setup, cfg coupler.Config) error {
	lg, err := s.Logger(s.CompName())
	if err != nil {
		return err
	}
	if s.LocalProcID() == 0 {
		lg.Printf("starting: %d ranks, world %d..%d",
			s.ExecWorld().Size(), s.ExeLowProcLimit(), s.ExeUpProcLimit())
	}

	d, err := coupler.RunCoupled(s, cfg)
	if err != nil {
		return err
	}

	if s.CompName() == cfg.Names.Coupler && s.LocalProcID() == 0 {
		lg.Printf("%-6s %10s %10s %10s %10s %14s", "period", "atm", "ocn", "land", "ice", "imbalance")
		for p := range d.AtmMean {
			lg.Printf("%-6d %10.3f %10.3f %10.4f %10.4f %14.3e",
				p, d.AtmMean[p], d.OcnMean[p], d.LandMean[p], d.IceMean[p], d.FluxImbalance[p])
		}
		// Also summarize on stdout so the launcher output shows the
		// result.
		last := len(d.AtmMean) - 1
		fmt.Printf("coupled run done: %d periods; final atm %.2f K, ocn %.2f K, ice %.3f m, flux imbalance %.2e\n",
			len(d.AtmMean), d.AtmMean[last], d.OcnMean[last], d.IceMean[last], d.FluxImbalance[last])
	}
	return nil
}
