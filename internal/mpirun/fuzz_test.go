package mpirun

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzParseSpec drives the four launch-spec parsers — everything mphrun
// reads from a file or a command line before it starts a process — from one
// byte corpus: the bytes as a cmdfile and as a hostfile, their fields as a
// colon spec, the string as a -hosts list. Invariants on whatever is
// accepted: no panic; the total is the sum of the entries' positive counts
// and at most MaxWorld; every entry has a command; every slot count is in
// [1, MaxWorld]; no host name, pinned or listed, is empty or option-shaped;
// no listed name holds whitespace, so a -hosts list and a hostfile spell a
// host the same way.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte("3 ./atm -x # comment\n2 host=node-b ./ocn\n1 ./coupler\n"))
	f.Add([]byte("node-a slots=2\nnode-b\n"))
	f.Add([]byte("node-a:2,node-b"))
	f.Add([]byte("3 ./atm : 2 host=node-b ./ocn"))
	f.Add([]byte("1000000000000 ./a.out\n"))                // unbounded world
	f.Add([]byte("9223372036854775807 ./a : 1 ./b"))        // a sum that wraps
	f.Add([]byte("node-a slots=1000000000000\n"))           // unbounded slots
	f.Add([]byte("-oProxyCommand=touch${IFS}/tmp/x:2"))     // option as a listed host
	f.Add([]byte("1 host=-oProxyCommand=false ./a.out\n"))  // option as a pin
	f.Add([]byte("-oProxyCommand=false slots=1\nnode-b\n")) // option in a hostfile
	f.Add([]byte("nodeA :2,nodeA"))                         // one host under two spellings
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEntries := func(parser string, entries []Entry, total int, err error) {
			if err != nil {
				return
			}
			sum := 0
			for _, e := range entries {
				if e.Nprocs <= 0 || len(e.Argv) == 0 || (e.Host != "" && !validHost(e.Host)) {
					t.Fatalf("%s accepted entry %+v", parser, e)
				}
				sum += e.Nprocs
			}
			if len(entries) == 0 || sum != total || total > MaxWorld {
				t.Fatalf("%s: %d entries, total %d, sum %d (bound %d)", parser, len(entries), total, sum, MaxWorld)
			}
		}
		checkHosts := func(parser string, hosts []HostSlot, err error) {
			if err != nil {
				return
			}
			for _, h := range hosts {
				if !validHost(h.Name) || strings.ContainsFunc(h.Name, unicode.IsSpace) || h.Slots < 1 || h.Slots > MaxWorld {
					t.Fatalf("%s accepted host %+v", parser, h)
				}
			}
			if len(hosts) == 0 {
				t.Fatalf("%s accepted an empty host set", parser)
			}
		}
		path := writeSpec(t, string(data))
		entries, total, err := ParseCmdfile(path)
		checkEntries("ParseCmdfile", entries, total, err)
		entries, total, err = ParseColonSpec(strings.Fields(string(data)))
		checkEntries("ParseColonSpec", entries, total, err)
		hosts, err := ParseHostfile(path)
		checkHosts("ParseHostfile", hosts, err)
		hosts, err = ParseHostList(string(data))
		checkHosts("ParseHostList", hosts, err)
	})
}
