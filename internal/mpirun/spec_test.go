package mpirun

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mph/internal/bootstrap"
)

func TestParseCmdfile(t *testing.T) {
	entries, total, err := ParseCmdfile(writeSpec(t, `
# a comment
3 ./atm -x   # trailing comment
2 host=node-b ./ocn
1 ./coupler
`))
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 || len(entries) != 3 {
		t.Fatalf("total %d, entries %d", total, len(entries))
	}
	if entries[0].Nprocs != 3 || entries[0].Argv[0] != "./atm" || entries[0].Argv[1] != "-x" || entries[0].Host != "" {
		t.Errorf("entry 0: %+v", entries[0])
	}
	if entries[1].Host != "node-b" || entries[1].Argv[0] != "./ocn" {
		t.Errorf("entry 1: %+v", entries[1])
	}
	if entries[2].Argv[0] != "./coupler" {
		t.Errorf("entry 2: %+v", entries[2])
	}
}

func TestParseCmdfileErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "# nothing\n",
		"bad count":  "x ./atm\n",
		"zero":       "0 ./atm\n",
		"negative":   "-2 ./atm\n",
		"no cmd":     "3\n",
		"empty pin":  "3 host= ./atm\n",
		"pin no cmd": "3 host=node-a\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := ParseCmdfile(writeSpec(t, content)); err == nil {
				t.Fatalf("accepted %q", content)
			}
		})
	}
	if _, _, err := ParseCmdfile(filepath.Join(t.TempDir(), "missing.cmd")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseColonSpec(t *testing.T) {
	entries, total, err := ParseColonSpec([]string{"3", "./atm", "-x", ":", "2", "host=node-b", "./ocn", ":", "1", "./cpl"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 || len(entries) != 3 {
		t.Fatalf("total %d, entries %d", total, len(entries))
	}
	if entries[0].Nprocs != 3 || entries[0].Argv[1] != "-x" {
		t.Errorf("entry 0 %+v", entries[0])
	}
	if entries[1].Host != "node-b" {
		t.Errorf("entry 1 %+v", entries[1])
	}
	if entries[2].Argv[0] != "./cpl" {
		t.Errorf("entry 2 %+v", entries[2])
	}
}

func TestParseColonSpecErrors(t *testing.T) {
	cases := [][]string{
		{":"},
		{"3", "./atm", ":"},
		{":", "3", "./atm"},
		{"x", "./atm"},
		{"0", "./atm"},
		{"3"},
		{"3", "host=", "./atm"},
	}
	for _, args := range cases {
		if _, _, err := ParseColonSpec(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
}

func TestParseHostfile(t *testing.T) {
	hosts, err := ParseHostfile(writeSpec(t, `
# cluster
node-a slots=2
node-b            # defaults to one slot
node-c slots=1
fd00::7 slots=4   # an IPv6 literal is a name
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []HostSlot{{"node-a", 2}, {"node-b", 1}, {"node-c", 1}, {"fd00::7", 4}}
	if !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts %+v, want %+v", hosts, want)
	}
}

func TestParseHostfileErrors(t *testing.T) {
	cases := map[string]string{
		"empty":     "# nothing\n",
		"bad slots": "node-a slots=x\n",
		"zero":      "node-a slots=0\n",
		"unknown":   "node-a cpus=4\n",
		"duplicate": "node-a\nnode-a\n",
		// One ':' is the -hosts slot syntax, not a name: refused, not read
		// as a host named "node-b:3" with one slot.
		"name:slots": "node-b:3\n",
		"brackets":   "[::1] slots=2\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseHostfile(writeSpec(t, content)); err == nil {
				t.Fatalf("accepted %q", content)
			}
		})
	}
}

func TestParseHostList(t *testing.T) {
	hosts, err := ParseHostList("node-a :2, node-b")
	if err != nil {
		t.Fatal(err)
	}
	want := []HostSlot{{"node-a", 2}, {"node-b", 1}}
	if !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts %+v, want %+v", hosts, want)
	}
	// A name means what it means in a hostfile: trimmed before the slots,
	// and never holding whitespace, which a hostfile splits on.
	for _, bad := range []string{"", "node-a,,node-b", "node-a:x", "node-a:0", ":2", "node-a,node-a",
		"nodeA :2,nodeA", "a b", "node\tA:2", "::1,::1", "[::1]:2", "[::1]"} {
		if _, err := ParseHostList(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	// An item with more than one ':' is an IPv6 literal with one slot, as
	// the same name is in a hostfile.
	hosts, err = ParseHostList("::1,fd00::7,node-a:2")
	if err != nil {
		t.Fatal(err)
	}
	want = []HostSlot{{"::1", 1}, {"fd00::7", 1}, {"node-a", 2}}
	if !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts %+v, want %+v", hosts, want)
	}
}

// placements extracts the per-rank host assignment of a spec.
func placements(s *LaunchSpec) []string {
	hosts := make([]string, len(s.Procs))
	for i, p := range s.Procs {
		hosts[i] = p.Host
	}
	return hosts
}

func TestPlacementBlock(t *testing.T) {
	entries := []Entry{{Nprocs: 3, Argv: []string{"a"}}, {Nprocs: 2, Argv: []string{"b"}}}
	hosts := []HostSlot{{"h1", 2}, {"h2", 2}, {"h3", 2}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "h1", "h2", "h2", "h3"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("block placement %v, want %v", got, want)
	}
}

func TestPlacementOversubscription(t *testing.T) {
	entries := []Entry{{Nprocs: 5, Argv: []string{"a"}}}
	hosts := []HostSlot{{"h1", 1}, {"h2", 1}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "h2", "h1", "h2", "h1"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("oversubscribed placement %v, want %v", got, want)
	}
}

func TestPlacementPins(t *testing.T) {
	entries := []Entry{
		{Nprocs: 2, Argv: []string{"a"}},
		{Nprocs: 1, Host: "pinned", Argv: []string{"b"}},
		{Nprocs: 1, Argv: []string{"c"}},
	}
	hosts := []HostSlot{{"h1", 2}, {"h2", 2}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	// The pinned rank bypasses the policy; unpinned ranks fill the hostfile
	// in order.
	want := []string{"h1", "h1", "pinned", "h2"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned placement %v, want %v", got, want)
	}
	if got := spec.Hosts(); !reflect.DeepEqual(got, []string{"h1", "pinned", "h2"}) {
		t.Errorf("Hosts() = %v", got)
	}
}

func TestPlacementNoHostsStaysLocal(t *testing.T) {
	entries := []Entry{{Nprocs: 2, Argv: []string{"a"}}}
	spec, err := NewLaunchSpec(entries, nil, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	if got := placements(spec); !reflect.DeepEqual(got, []string{"", ""}) {
		t.Fatalf("placement without hosts %v, want all local", got)
	}
}

func TestLaunchSpecValidate(t *testing.T) {
	ok := &LaunchSpec{Procs: []Proc{{Rank: 0, Argv: []string{"a"}}, {Rank: 1, Argv: []string{"b"}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := map[string]*LaunchSpec{
		"empty":          {},
		"sparse ranks":   {Procs: []Proc{{Rank: 1, Argv: []string{"a"}}}},
		"no command":     {Procs: []Proc{{Rank: 0}}},
		"host but local": {Procs: []Proc{{Rank: 0, Host: "h1", Argv: []string{"a"}}}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	remote := &LaunchSpec{Procs: []Proc{{Rank: 0, Host: "h1", Argv: []string{"a"}}}, Spawner: NewExecSpawner("")}
	if err := remote.Validate(); err != nil {
		t.Errorf("exec spec with host rejected: %v", err)
	}
}

func TestPassthroughEnv(t *testing.T) {
	environ := []string{
		"PATH=/bin",
		"MPH_FAULT=drop",
		bootstrap.EnvRank + "=3",
		bootstrap.EnvBind + "=0.0.0.0",
		"MPH_WRITE_TIMEOUT=20s",
		"NOTMPH=1",
	}
	got := passthroughEnv(environ)
	want := []string{"MPH_FAULT=drop", "MPH_WRITE_TIMEOUT=20s"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("passthroughEnv = %v, want %v", got, want)
	}
}

func TestShellJoin(t *testing.T) {
	got := shellJoin([]string{"/usr/bin/mphrun", "agent", `A=x y`, `B=it's`})
	want := `'/usr/bin/mphrun' 'agent' 'A=x y' 'B=it'\''s'`
	if got != want {
		t.Errorf("shellJoin:\n got %s\nwant %s", got, want)
	}
}

// writeSpec writes one parser input file and returns its path.
func writeSpec(t testing.TB, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParsersRejectOptionShapedHosts: every host name ends up in an ssh
// command line, so none of the three places one can be written may accept a
// name ssh would read as an option.
func TestParsersRejectOptionShapedHosts(t *testing.T) {
	for _, bad := range []string{"-oProxyCommand=touch${IFS}/tmp/pwned", "-l"} {
		if _, err := ParseHostfile(writeSpec(t, "node-a\n"+bad+" slots=2\n")); err == nil {
			t.Errorf("hostfile accepted host %q", bad)
		}
		for _, list := range []string{bad, "node-a," + bad + ":2"} {
			if _, err := ParseHostList(list); err == nil {
				t.Errorf("host list %q accepted", list)
			}
		}
		if _, _, err := ParseCmdfile(writeSpec(t, "1 host="+bad+" ./a.out\n")); err == nil {
			t.Errorf("cmdfile accepted pin host=%s", bad)
		}
		if _, _, err := ParseColonSpec([]string{"1", "host=" + bad, "./a.out"}); err == nil {
			t.Errorf("colon spec accepted pin host=%s", bad)
		}
	}
}

// TestWorldSizeBound: rank counts are outside input; their sum must not wrap
// or size an allocation. Every summing site reports the entry that crossed
// MaxWorld as a WorldSizeError, and a slot count is held to the same bound.
func TestWorldSizeBound(t *testing.T) {
	const huge = "1000000000000"
	var sizeErr *WorldSizeError
	path := writeSpec(t, "2 ./ok\n"+huge+" ./a.out\n")
	if _, _, err := ParseCmdfile(path); !errors.As(err, &sizeErr) || sizeErr.Where != path+":2" {
		t.Errorf("cmdfile: %v, want a WorldSizeError naming %s:2", err, path)
	}
	// 9223372036854775807 + 1 wraps negative in an unchecked sum.
	if _, _, err := ParseColonSpec([]string{"9223372036854775807", "./a", ":", "1", "./b"}); !errors.As(err, &sizeErr) {
		t.Errorf("colon spec: %v, want a WorldSizeError", err)
	}
	half := []Entry{{Nprocs: MaxWorld/2 + 1, Argv: []string{"./a"}}, {Nprocs: MaxWorld / 2, Argv: []string{"./b"}}}
	if _, err := NewLaunchSpec(half, nil, PlaceBlock); !errors.As(err, &sizeErr) || !strings.Contains(sizeErr.Where, "./b") {
		t.Errorf("NewLaunchSpec: %v, want a WorldSizeError naming ./b", err)
	}
	if _, err := ParseHostfile(writeSpec(t, "node-a slots="+huge+"\n")); err == nil {
		t.Error("hostfile accepted slots=" + huge)
	}
	if _, err := ParseHostList("node-a:" + huge); err == nil {
		t.Error("host list accepted " + huge + " slots")
	}
	if _, total, err := ParseColonSpec([]string{strconv.Itoa(MaxWorld), "./a"}); err != nil || total != MaxWorld {
		t.Errorf("a world of exactly MaxWorld: total %d, %v", total, err)
	}
}
