package mpirun

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Entry is one parsed component of an MPMD spec: an executable, its
// processor count, and an optional explicit host pin ("host=NAME" between
// the count and the command).
type Entry struct {
	// Nprocs is the number of world ranks this executable owns.
	Nprocs int
	// Host pins every rank of the entry to one host ("" = policy-placed).
	Host string
	// Argv is the command and its arguments.
	Argv []string
	// Line is the cmdfile line the entry came from (0 for colon specs).
	Line int
}

// MaxWorld bounds the ranks of one job and the slots of one host. The counts
// come from files and command lines; unbounded, their sum wraps and sizes
// NewLaunchSpec's slice.
const MaxWorld = 1 << 20

// WorldSizeError reports the entry whose rank count takes a job past MaxWorld.
type WorldSizeError struct {
	Where  string // the entry: "job.cmd:3", a colon-spec segment, a command
	Nprocs int    // its rank count
}

// Error implements error.
func (e *WorldSizeError) Error() string {
	return fmt.Sprintf("%s: %d more ranks pass the %d-rank world bound", e.Where, e.Nprocs, MaxWorld)
}

// addRanks returns total+n, or a WorldSizeError if that passes MaxWorld
// (total never does and n is positive, so the comparison cannot wrap).
func addRanks(total, n int, where string) (int, error) {
	if n > MaxWorld-total {
		return 0, &WorldSizeError{where, n}
	}
	return total + n, nil
}

// validHost reports whether a host name from a hostfile, a -hosts list or a
// host= pin may reach a spawner: non-empty, free of whitespace (a hostfile
// splits on it, so no other source may hold a name a hostfile cannot), and
// not shaped like an option — ssh would parse "-oProxyCommand=..." in host
// position as one and run it.
func validHost(name string) bool {
	return name != "" && name[0] != '-' && !strings.ContainsFunc(name, unicode.IsSpace)
}

// parseEntryFields turns the token list of one spec segment —
// "nprocs [host=NAME] command [args...]" — into an Entry.
func parseEntryFields(fields []string, line int) (Entry, error) {
	joined := strings.Join(fields, " ")
	if len(fields) < 2 {
		return Entry{}, fmt.Errorf("segment %q: expected \"nprocs [host=NAME] command [args...]\"", joined)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n <= 0 {
		return Entry{}, fmt.Errorf("segment %q: bad processor count %q", joined, fields[0])
	}
	e := Entry{Nprocs: n, Line: line}
	rest := fields[1:]
	if strings.HasPrefix(rest[0], "host=") {
		e.Host = strings.TrimPrefix(rest[0], "host=")
		if !validHost(e.Host) {
			return Entry{}, fmt.Errorf("segment %q: bad host= pin %q", joined, e.Host)
		}
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return Entry{}, fmt.Errorf("segment %q: no command", joined)
	}
	e.Argv = append([]string(nil), rest...)
	return e, nil
}

// ParseColonSpec reads the mpirun-style inline MPMD spec: colon-separated
// segments of "nprocs [host=NAME] command [args...]" (the SGI/Compaq launch
// idiom the paper mentions alongside the IBM cmdfile, §6). It returns the
// entries and the total rank count.
func ParseColonSpec(args []string) ([]Entry, int, error) {
	var entries []Entry
	total := 0
	seg := []string{}
	flush := func() error {
		if len(seg) == 0 {
			return fmt.Errorf("empty segment in colon-separated command line")
		}
		e, err := parseEntryFields(seg, 0)
		if err != nil {
			return err
		}
		entries = append(entries, e)
		total, err = addRanks(total, e.Nprocs, fmt.Sprintf("segment %q", strings.Join(seg, " ")))
		seg = seg[:0]
		return err
	}
	for _, a := range args {
		if a == ":" {
			if err := flush(); err != nil {
				return nil, 0, err
			}
			continue
		}
		seg = append(seg, a)
	}
	if err := flush(); err != nil {
		return nil, 0, err
	}
	return entries, total, nil
}

// ParseCmdfile reads the MPMD command file: one "nprocs [host=NAME] command
// [args...]" entry per line, '#' comments, blank lines ignored.
func ParseCmdfile(path string) ([]Entry, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	var entries []Entry
	total := 0
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		e, err := parseEntryFields(fields, lineNo)
		if err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		entries = append(entries, e)
		if total, err = addRanks(total, e.Nprocs, fmt.Sprintf("%s:%d", path, lineNo)); err != nil {
			return nil, 0, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(entries) == 0 {
		return nil, 0, fmt.Errorf("%s: no executables", path)
	}
	return entries, total, nil
}

// HostSlot is one host of a hostfile: a name and the number of ranks block
// placement schedules onto it before moving on (its "slots").
type HostSlot struct {
	// Name is the host name or address ssh reaches it by; under the exec
	// backend it is only a label.
	Name string
	// Slots is the rank capacity block placement fills (>= 1).
	Slots int
}

// ParseHostfile reads a hostfile: one "host [slots=N]" entry per line, '#'
// comments and blank lines ignored, default one slot per host.
//
//	# cluster nodes
//	node-a slots=2
//	node-b            # one slot
func ParseHostfile(path string) ([]HostSlot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var hosts []HostSlot
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		hs := HostSlot{Name: fields[0], Slots: 1}
		if !validHost(hs.Name) {
			return nil, fmt.Errorf("%s:%d: bad host name %q", path, lineNo, hs.Name)
		}
		for _, tok := range fields[1:] {
			val, ok := strings.CutPrefix(tok, "slots=")
			if !ok {
				return nil, fmt.Errorf("%s:%d: unknown token %q (want \"host [slots=N]\")", path, lineNo, tok)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 || n > MaxWorld {
				return nil, fmt.Errorf("%s:%d: bad slot count %q", path, lineNo, val)
			}
			hs.Slots = n
		}
		if seen[hs.Name] {
			return nil, fmt.Errorf("%s:%d: host %q listed twice", path, lineNo, hs.Name)
		}
		seen[hs.Name] = true
		hosts = append(hosts, hs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("%s: no hosts", path)
	}
	return hosts, nil
}

// ParseHostList reads the inline -hosts form: comma-separated host names,
// each with an optional ":slots" suffix ("node-a:2,node-b").
func ParseHostList(s string) ([]HostSlot, error) {
	var hosts []HostSlot
	seen := make(map[string]bool)
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("empty host in list %q", s)
		}
		hs := HostSlot{Name: item, Slots: 1}
		if name, slots, ok := strings.Cut(item, ":"); ok {
			n, err := strconv.Atoi(slots)
			if err != nil || n <= 0 || n > MaxWorld {
				return nil, fmt.Errorf("bad host entry %q (want \"host[:slots]\")", item)
			}
			hs = HostSlot{Name: strings.TrimSpace(name), Slots: n}
		}
		if !validHost(hs.Name) {
			return nil, fmt.Errorf("bad host name %q in list %q", hs.Name, s)
		}
		if seen[hs.Name] {
			return nil, fmt.Errorf("host %q listed twice", hs.Name)
		}
		seen[hs.Name] = true
		hosts = append(hosts, hs)
	}
	return hosts, nil
}

// Placement names how unpinned ranks are assigned to hostfile hosts;
// PlaceBlock is the only policy.
type Placement int

// PlaceBlock fills each host's slots with consecutive ranks before moving to
// the next host — components land on as few hosts as possible; a host= pin
// is how a component is spread instead. NewLaunchSpec keeps its policy
// parameter, and this constant, for the callers that pass it
// (benchmark/runjob.go among them).
const PlaceBlock Placement = 0

// Proc is one placed rank of a LaunchSpec.
type Proc struct {
	// Rank is the world rank.
	Rank int
	// Host is the placement host ("" = the launcher's host).
	Host string
	// Argv is the command and arguments.
	Argv []string
	// Env holds extra KEY=VALUE pairs for this rank only.
	Env []string
	// Exe is the index of the spec entry the rank belongs to, for the
	// per-component failure report.
	Exe int
}

// LaunchSpec is a fully placed MPMD job: every rank with its host, command,
// and environment, plus the job-level knobs. It is the typed replacement for
// the (entries, total, registration, timeout, grace, extraEnv) parameter
// trail the launcher used to thread, and it lets tests drive launches
// without building a binary.
type LaunchSpec struct {
	// Procs lists every rank in world order.
	Procs []Proc
	// Registration is the registration-file path forwarded to every rank
	// ("" = none). Remote spawners ship the file's contents inside the spawn
	// request, so it only needs to exist on the launcher's host.
	Registration string
	// Timeout bounds the rendezvous exchange (default 120s).
	Timeout time.Duration
	// Grace is how long survivors of a failed rank get to exit after the
	// abort broadcast before their process groups are killed — on every
	// host (default 5s).
	Grace time.Duration
	// ExtraEnv entries (KEY=VALUE) are appended to every rank's environment
	// (the trace directory and the like).
	ExtraEnv []string
	// Telemetry, when non-nil, aggregates the ranks' reports: every rank
	// clock-syncs with the launcher as it wires up, reports over its session
	// at the aggregator's interval, and sends a final report when it exits.
	// While the job runs, the aggregator's /rank/R/stacks asks ranks over
	// their sessions. nil = ranks report nothing.
	Telemetry *Telemetry
	// Bind is the host or IP the rendezvous and every rank's listener bind
	// ("" = backend default: loopback unless the spawner wants routable
	// addresses, in which case all interfaces with a detected routable IP).
	// Launch resolves a host name to one IP before any rank sees it.
	Bind string
	// Quiet suppresses the launcher's informational banner (benchmark
	// harnesses that launch hundreds of jobs).
	Quiet bool
	// Spawner opens the placement hosts the rank blocks are spawned on (nil
	// = NewLocalSpawner).
	Spawner Spawner
}

// NewLaunchSpec places the ranks of the parsed entries onto hosts under
// PlaceBlock and returns the resulting spec. With no hosts, unpinned
// ranks stay on the launcher's host; pinned entries always land on their
// pin. When ranks outnumber the hostfile's total slots, placement wraps
// around (oversubscription), matching what the paper's vendor launchers do
// when a node list is shorter than the job.
func NewLaunchSpec(entries []Entry, hosts []HostSlot, _ Placement) (*LaunchSpec, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("mpirun: no executables")
	}
	total := 0
	for _, e := range entries {
		if e.Nprocs <= 0 {
			return nil, fmt.Errorf("mpirun: entry %q: processor count %d", strings.Join(e.Argv, " "), e.Nprocs)
		}
		if len(e.Argv) == 0 {
			return nil, fmt.Errorf("mpirun: entry with no command")
		}
		var err error
		if total, err = addRanks(total, e.Nprocs, fmt.Sprintf("mpirun: entry %q", strings.Join(e.Argv, " "))); err != nil {
			return nil, err
		}
	}
	assign := placeRanks(entries, hosts, total)
	spec := &LaunchSpec{Procs: make([]Proc, 0, total)}
	rank := 0
	for ei, e := range entries {
		for i := 0; i < e.Nprocs; i++ {
			spec.Procs = append(spec.Procs, Proc{
				Rank: rank,
				Host: assign[rank],
				Argv: e.Argv,
				Exe:  ei,
			})
			rank++
		}
	}
	injectSlotShares(spec.Procs, hosts)
	return spec, nil
}

// injectSlotShares appends a GOMAXPROCS override to each rank placed on a
// host with a known slot count: its share of the host's slots, floored at
// one. With no hosts, the launcher's host ("") counts as one host with a
// slot per CPU. Every rank would otherwise size its scheduler to the full
// machine: an extra OS thread and per-P caches each, idle-P spinning, and a
// cross-thread wake-up per message its reader hands on. With the share,
// co-located ranks split the slots evenly. A caller's own per-rank Env
// GOMAXPROCS still wins — the share is prepended, and child environments
// keep the last value of a duplicated key. A rank pinned to a host outside
// the list gets nothing.
func injectSlotShares(procs []Proc, hosts []HostSlot) {
	if len(hosts) == 0 {
		hosts = []HostSlot{{Name: "", Slots: runtime.NumCPU()}}
	}
	slots := make(map[string]int, len(hosts))
	for _, h := range hosts {
		slots[h.Name] = h.Slots
	}
	ranksOn := make(map[string]int)
	for _, p := range procs {
		ranksOn[p.Host]++
	}
	for i := range procs {
		total, known := slots[procs[i].Host]
		if !known {
			continue
		}
		share := total / ranksOn[procs[i].Host]
		if share < 1 {
			share = 1
		}
		procs[i].Env = append([]string{fmt.Sprintf("GOMAXPROCS=%d", share)}, procs[i].Env...)
	}
}

// placeRanks computes the host of every rank: pins first, then block
// placement over the hostfile for the rest. Once every slot is used it
// wraps around, ignoring slot counts from then on (oversubscription).
func placeRanks(entries []Entry, hosts []HostSlot, total int) []string {
	assign := make([]string, total)
	var unpinned []int
	rank := 0
	for _, e := range entries {
		for i := 0; i < e.Nprocs; i++ {
			if e.Host != "" {
				assign[rank] = e.Host
			} else {
				unpinned = append(unpinned, rank)
			}
			rank++
		}
	}
	if len(hosts) == 0 {
		return assign
	}
	for len(unpinned) > 0 {
		for _, h := range hosts {
			for s := 0; s < h.Slots && len(unpinned) > 0; s++ {
				assign[unpinned[0]] = h.Name
				unpinned = unpinned[1:]
			}
		}
	}
	return assign
}

// Validate checks the spec for internal consistency and spawner fit.
func (s *LaunchSpec) Validate() error {
	if len(s.Procs) == 0 {
		return fmt.Errorf("mpirun: spec has no ranks")
	}
	_, local := s.Spawner.(*LocalSpawner)
	local = local || s.Spawner == nil
	for i, p := range s.Procs {
		if p.Rank != i {
			return fmt.Errorf("mpirun: spec rank %d at index %d (ranks must be dense and ordered)", p.Rank, i)
		}
		if len(p.Argv) == 0 {
			return fmt.Errorf("mpirun: rank %d has no command", i)
		}
		if p.Host != "" && local {
			return fmt.Errorf("mpirun: rank %d placed on host %q but the backend is local; use -backend exec, ssh, or daemon", i, p.Host)
		}
	}
	return nil
}

// Hosts returns the distinct placement hosts of the spec in first-use
// order, with "" (the launcher's host) included if any rank runs there.
func (s *LaunchSpec) Hosts() []string {
	var hosts []string
	seen := make(map[string]bool)
	for _, p := range s.Procs {
		if !seen[p.Host] {
			seen[p.Host] = true
			hosts = append(hosts, p.Host)
		}
	}
	return hosts
}
