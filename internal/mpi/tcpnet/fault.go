package tcpnet

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Deterministic fault injection, driven by the MPH_FAULT environment
// variable. It exists for the chaos tests and for reproducing failure
// scenarios by hand; production jobs never set it.
//
// A spec is a semicolon-separated list of rules. Each rule is a
// comma-separated list whose first field is the action and whose remaining
// fields are key=value filters:
//
//	action[,rank=R][,peer=P][,frame=F][,after=K][,times=N][,dur=D]
//
// Actions:
//
//	drop   — silently discard a matching outbound frame
//	delay  — sleep dur (default 100ms) before sending a matching frame
//	sever  — abruptly close the established connection to the peer just
//	         before the matching send (the send then redials: this is the
//	         mid-run connection-loss scenario)
//	die    — sever every connection and terminate the process (simulates a
//	         rank crash after K frames)
//
// Filters:
//
//	rank=R  — the rule only applies in the process whose world rank is R
//	peer=P  — the rule only applies to sends addressed to world rank P
//	frame=F — the outbound frame kind the rule applies to: packet (eager
//	          message, the default), rts / cts / data (the rendezvous
//	          protocol frames; data is the payload on the TCP stream), shm
//	          (the payload taking the intra-host channel instead; sever
//	          closes the local socket, not the TCP stream, so the
//	          transparent TCP fallback is exercised), or any
//	after=K — the rule arms after K matching sends have passed unharmed
//	times=N — the rule fires at most N times (default 1; 0 = unlimited)
//	dur=D   — delay duration (delay action only), Go duration syntax
//
// Example: MPH_FAULT="sever,rank=1,peer=2,after=3" severs rank 1's
// connection to rank 2 just before its 4th send to it, and
// MPH_FAULT="sever,rank=0,frame=data" severs rank 0's connection between
// receiving a CTS and writing the rendezvous payload.
type faultRule struct {
	action string
	rank   int    // -1 = any rank
	peer   int    // -1 = any peer
	frame  string // frame kind filter: "packet", "rts", "cts", "data", "shm", "any"
	after  int    // matching sends to let through before arming
	times  int    // max firings; 0 = unlimited
	dur    time.Duration

	seen  int // matching sends observed (guarded by faultSet.mu)
	fired int // times the rule has fired
}

// faultSet is a parsed MPH_FAULT spec plus its firing state.
type faultSet struct {
	mu    sync.Mutex
	rules []*faultRule
}

// faultAction is what the send path must do for one outbound frame.
type faultAction struct {
	kind string // "", "drop", "delay", "sever", "die"
	dur  time.Duration
}

// Fault-point frame kinds, the values of the frame= filter: the frame
// table's fault column, plus frameShm for a payload on the intra-host carrier
// and frameAny, which matches every fault point. The default framePacket
// preserves the pre-rendezvous grammar, where every injectable send was an
// eager packet frame.
const (
	framePacket = "packet"
	frameRTS    = "rts"
	frameCTS    = "cts"
	frameData   = "data"
	frameShm    = "shm"
	frameAny    = "any"
)

// ParseFaultSpec parses an MPH_FAULT specification. It is exported so tests
// and tooling can validate specs; an empty spec yields a nil set.
func ParseFaultSpec(spec string) (*faultSet, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	fs := &faultSet{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ",")
		r := &faultRule{action: strings.TrimSpace(fields[0]), rank: -1, peer: -1, frame: framePacket, times: 1, dur: 100 * time.Millisecond}
		switch r.action {
		case "drop", "delay", "sever", "die":
		default:
			return nil, fmt.Errorf("tcpnet: unknown fault action %q in %q", r.action, part)
		}
		for _, f := range fields[1:] {
			f = strings.TrimSpace(f)
			key, val, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("tcpnet: bad fault field %q in %q", f, part)
			}
			switch key {
			case "rank", "peer", "after", "times":
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("tcpnet: bad fault field %q in %q", f, part)
				}
				switch key {
				case "rank":
					r.rank = n
				case "peer":
					r.peer = n
				case "after":
					r.after = n
				case "times":
					r.times = n
				}
			case "frame":
				switch val {
				case framePacket, frameRTS, frameCTS, frameData, frameShm, frameAny:
					r.frame = val
				default:
					return nil, fmt.Errorf("tcpnet: bad fault frame kind %q in %q", val, part)
				}
			case "dur":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("tcpnet: bad fault duration %q in %q", f, part)
				}
				r.dur = d
			default:
				return nil, fmt.Errorf("tcpnet: unknown fault key %q in %q", key, part)
			}
		}
		fs.rules = append(fs.rules, r)
	}
	if len(fs.rules) == 0 {
		return nil, nil
	}
	return fs, nil
}

// sendAction consults the rules for one outbound frame of the given kind
// from rank to peer and returns the first firing action ("" kind when none
// fires). Each matching rule's counters advance exactly once per call, which
// is what makes after=K deterministic — a rule only observes sends of its
// own frame kind, so after= counts within that kind.
func (fs *faultSet) sendAction(rank, peer int, frame string) faultAction {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, r := range fs.rules {
		if r.rank >= 0 && r.rank != rank {
			continue
		}
		if r.peer >= 0 && r.peer != peer {
			continue
		}
		if r.frame != frameAny && r.frame != frame {
			continue
		}
		r.seen++
		if r.seen <= r.after {
			continue
		}
		if r.times > 0 && r.fired >= r.times {
			continue
		}
		r.fired++
		return faultAction{kind: r.action, dur: r.dur}
	}
	return faultAction{}
}

// injectFault consults the fault rules for one outbound frame to this peer —
// of the given kind, about to take the intra-host carrier or not — and
// applies the side-effectful actions (delay, sever, die) inline. It reports
// whether the frame is to be dropped; what a vanished frame means differs
// per kind, so that is left to send's caller.
func (pr *peer) injectFault(kind byte, viaUnix bool) (drop bool) {
	t, name := pr.t, frameTable[kind].fault
	if viaUnix {
		name = frameShm
	}
	act := t.faults.sendAction(t.rank, pr.rank, name)
	if act.kind == "" {
		return false
	}
	t.netCounters().FaultsInjected.Add(1)
	switch act.kind {
	case "delay":
		time.Sleep(act.dur)
	case "sever":
		pr.sever(viaUnix)
	case "die":
		t.severAll()
		osExit(1)
	}
	return act.kind == "drop"
}
