package mpirun

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"unicode"

	"mph/internal/wire"
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

// FuzzBlockRecord reads arbitrary bytes as a block-protocol stream, each
// record with the reader its kind belongs to — a server's readRequest or a
// launcher's readEvent — and starts no process. Invariants: no panic; what
// a record decodes to, whole or cut short, is bounded by its bytes (its
// strings' lengths plus each list's count times the least bytes an item
// takes); and a record that decodes re-encodes to the bytes it came from.
func FuzzBlockRecord(f *testing.F) {
	spawn := blockRequest{Kind: kindSpawn, Spawn: SpawnBlock{
		Size: 2, Rendezvous: "10.0.0.1:7000", Regdata: "BEGIN\n\x00\xff\nEND\n", Host: "nodeA",
		Env:   []string{"MPH_TRACE_DIR=/tmp/tr"},
		Ranks: []SpawnRank{{Rank: 0, Argv: []string{"./atm", "-x"}}, {Rank: 1, Argv: []string{"./ocn"}, Env: []string{"A=b"}}},
	}}
	req := func(q blockRequest) []byte { return wire.AppendRecord(nil, q.Kind, q.fields) }
	ev := func(e blockEvent) []byte { return wire.AppendRecord(nil, e.Kind, e.fields) }
	full := req(spawn)
	f.Add(req(blockRequest{Kind: kindPing}))
	f.Add(full)
	f.Add(req(blockRequest{Kind: kindKill, Rank: -1}))
	f.Add(full[:len(full)-3]) // a record cut short
	f.Add(append(binary.LittleEndian.AppendUint32(nil, wire.MaxRecordBytes+1), kindSpawn, 0, 0))
	f.Add(slices.Concat(ev(blockEvent{Kind: kindPong}), ev(blockEvent{Kind: kindSpawned, Rank: 1, Pid: 42}),
		ev(blockEvent{Kind: kindLine, Rank: 1, Stderr: true, Text: "oops"}),
		ev(blockEvent{Kind: kindExit, Rank: 1, Code: 127, Text: "start: no such file"}),
		ev(blockEvent{Kind: kindError, Text: "bad request"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for r.Len() > 0 {
			at := len(data) - r.Len()
			var q blockRequest
			var e blockEvent
			var err error
			var held int
			if r.Len() > 4 && data[at+4] <= kindKill {
				err = readRequest(r, &q)
				held = requestHolds(&q)
			} else {
				err = readEvent(r, &e)
				held = len(e.Text)
			}
			raw := data[at : len(data)-r.Len()]
			if held > max(len(raw)-5, 0) {
				t.Fatalf("a %d-byte record decoded to %d bytes of strings and lists", len(raw), held)
			}
			if err != nil {
				return
			}
			again := req(q)
			if q.Kind == 0 {
				again = ev(e)
			}
			if !bytes.Equal(again, raw) {
				t.Fatalf("record %x re-encoded as %x", raw, again)
			}
		}
	})
}

// requestHolds sums a request's strings' lengths and its lists' counts
// times the least bytes an item of each takes.
func requestHolds(q *blockRequest) int {
	b := &q.Spawn
	n := len(b.Rendezvous) + len(b.Regdata) + len(b.Host) + len(b.Bind) + listHolds(b.Env) + 16*len(b.Ranks)
	for _, rk := range b.Ranks {
		n += listHolds(rk.Argv) + listHolds(rk.Env)
	}
	return n
}

// listHolds is what requestHolds counts for a list of strings.
func listHolds(s []string) int {
	n := 4 * len(s)
	for _, v := range s {
		n += len(v)
	}
	return n
}
