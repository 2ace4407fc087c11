package mpirun

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestDedupEnv pins the duplicate-key rule the GOMAXPROCS injection relies
// on: the Go runtime honours the FIRST occurrence of a key, so dedupEnv
// must collapse duplicates to the last value while keeping positions.
func TestDedupEnv(t *testing.T) {
	got := dedupEnv([]string{"A=1", "B=2", "A=3", "C=4", "B=5"})
	want := []string{"A=3", "B=5", "C=4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupEnv = %v, want %v", got, want)
	}
	// Non-KEY=VALUE entries pass through untouched.
	got = dedupEnv([]string{"weird", "A=1"})
	if !reflect.DeepEqual(got, []string{"weird", "A=1"}) {
		t.Errorf("dedupEnv mangled odd entries: %v", got)
	}
}

// TestSlotShareInjection covers the slot-aware GOMAXPROCS policy at the
// spec level: even splits, oversubscription floored at one, unknown hosts
// untouched.
func TestSlotShareInjection(t *testing.T) {
	// Four ranks fill part of big; the pin puts two on small.
	entries := []Entry{{Nprocs: 4, Argv: []string{"w"}}, {Nprocs: 2, Host: "small", Argv: []string{"w"}}}
	hosts := []HostSlot{{Name: "big", Slots: 8}, {Name: "small", Slots: 2}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[string]int{}
	for _, p := range spec.Procs {
		perHost[p.Host]++
	}
	for _, p := range spec.Procs {
		want := fmt.Sprintf("GOMAXPROCS=%d", max(1, slotOf(hosts, p.Host)/perHost[p.Host]))
		found := false
		for _, kv := range p.Env {
			if kv == want {
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d on %s env %v missing %s", p.Rank, p.Host, p.Env, want)
		}
	}

	// Oversubscription: 4 ranks on a single-slot host still get at least 1.
	over, err := NewLaunchSpec([]Entry{{Nprocs: 4, Argv: []string{"w"}}},
		[]HostSlot{{Name: "tiny", Slots: 1}}, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range over.Procs {
		if !contains(p.Env, "GOMAXPROCS=1") {
			t.Errorf("oversubscribed rank %d env %v, want GOMAXPROCS=1", p.Rank, p.Env)
		}
	}

	// No hostfile: the launcher's host counts as one host with a slot per
	// CPU. A rank pinned to a host no list names gets nothing, with or
	// without a hostfile, and is not counted against the share.
	share := func(n int) string { return fmt.Sprintf("GOMAXPROCS=%d", max(1, runtime.NumCPU()/n)) }
	for _, tc := range []struct {
		name    string
		entries []Entry
		hosts   []HostSlot
		want    []string // per rank; "" = no GOMAXPROCS
	}{
		{"no hostfile", []Entry{{Nprocs: 2, Argv: []string{"w"}}}, nil,
			[]string{share(2), share(2)}},
		{"no hostfile, one rank pinned", []Entry{
			{Nprocs: 3, Argv: []string{"w"}},
			{Nprocs: 1, Host: "stray", Argv: []string{"w"}},
		}, nil, []string{share(3), share(3), share(3), ""}},
		{"pinned off the hostfile", []Entry{
			{Nprocs: 2, Argv: []string{"w"}},
			{Nprocs: 1, Host: "stray", Argv: []string{"w"}},
		}, []HostSlot{{Name: "big", Slots: 8}}, []string{"GOMAXPROCS=4", "GOMAXPROCS=4", ""}},
	} {
		spec, err := NewLaunchSpec(tc.entries, tc.hosts, PlaceBlock)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range spec.Procs {
			got := ""
			for _, kv := range p.Env {
				if strings.HasPrefix(kv, "GOMAXPROCS=") {
					got = kv
				}
			}
			if got != tc.want[i] {
				t.Errorf("%s: rank %d on %q got %q, want %q", tc.name, p.Rank, p.Host, got, tc.want[i])
			}
		}
	}
}

// slotOf looks up a host's slot count.
func slotOf(hosts []HostSlot, name string) int {
	for _, h := range hosts {
		if h.Name == name {
			return h.Slots
		}
	}
	return 0
}

// contains reports whether the env slice holds the exact entry.
func contains(env []string, kv string) bool {
	for _, e := range env {
		if e == kv {
			return true
		}
	}
	return false
}

// TestSlotShareReachesChild runs the injected share end to end through a
// real spawn, with a hostfile and without one: the child must observe the
// slot share even though the inherited environment already carries a
// GOMAXPROCS (Go keeps the first occurrence of a duplicated key — the bug
// dedupEnv exists for).
func TestSlotShareReachesChild(t *testing.T) {
	t.Setenv("GOMAXPROCS", "99") // the launcher's own value must lose
	for _, tc := range []struct {
		name  string
		hosts []HostSlot
		want  int
	}{
		{"hostfile", []HostSlot{{Name: "nodeA", Slots: 2}}, 2},
		{"no hostfile", nil, runtime.NumCPU()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := fmt.Sprintf(`test "$GOMAXPROCS" = %d`, tc.want)
			spec, err := NewLaunchSpec(
				[]Entry{{Nprocs: 1, Argv: []string{"/bin/sh", "-c", check}}}, tc.hosts, PlaceBlock)
			if err != nil {
				t.Fatal(err)
			}
			h := spawnOn(t, NewLocalSpawner(), "", Block{Procs: spec.Procs, Size: 1})
			if err := collectExits(t, h, 1)[0]; err != nil {
				t.Fatalf("child saw the wrong GOMAXPROCS, want %d: %v", tc.want, err)
			}
		})
	}
}
