// Package registry parses and validates MPH component registration files
// (the "processors_map.in" of the paper). The file is the single runtime
// input that names every component, groups components into executables, and
// assigns executable-local processor ranges — nothing is hard-coded in the
// application (paper §3, §4).
//
// Grammar (one directive or entry per line, '!' starts a comment):
//
//	BEGIN
//	  <name> [field ...]                      single-component executable
//	  Multi_Component_Begin
//	    <name> <low> <high> [field ...]       component of the executable
//	    ...
//	  Multi_Component_End
//	  Multi_Instance_Begin
//	    <name> <low> <high> [field ...]       instance of the executable
//	    ...
//	  Multi_Instance_End
//	END
//
// Ranges are executable-local processor indices, inclusive. Components of a
// multi-component executable may overlap (paper §4.2); instances of a
// multi-instance executable may not (each instance is a replica on its own
// processor subset, §2.5). Up to MaxFields argument strings — positional
// ("infile3") or key=value ("alpha=3") — may follow each ranged line (§4.4).
package registry

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Limits stated by the paper (§4.3, §4.4).
const (
	// MaxComponents is the maximum number of components in one
	// multi-component executable ("each executable could contain up to 10
	// components").
	MaxComponents = 10
	// MaxFields is the maximum number of argument strings per component or
	// instance line ("up to 5 character strings can be appended").
	MaxFields = 5
)

// Kind classifies an executable entry.
type Kind int

// Executable kinds.
const (
	// SingleComponent is a stand-alone executable holding one component
	// (SCME entries, and the whole application in SCSE).
	SingleComponent Kind = iota
	// MultiComponent is one executable holding several components on
	// possibly overlapping executable-local processor ranges (MCSE/MCME).
	MultiComponent
	// MultiInstance is one executable replicated on disjoint processor
	// subsets, one component per instance (MIME, §2.5).
	MultiInstance
)

// String returns the registration-file spelling of the kind.
func (k Kind) String() string {
	switch k {
	case SingleComponent:
		return "single-component"
	case MultiComponent:
		return "multi-component"
	case MultiInstance:
		return "multi-instance"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Component is one named component (or instance) of an executable.
type Component struct {
	// Name is the unique component name-tag.
	Name string
	// Low and High are the inclusive executable-local processor range.
	// Both are -1 for bare single-component entries, whose size is fixed
	// by the job launcher, not the file (§2.3).
	Low, High int
	// Fields holds the argument strings from the line, in order.
	Fields []string
	// Line is the 1-based source line, for diagnostics.
	Line int
}

// Ranged reports whether the component carries an explicit processor range.
func (c Component) Ranged() bool { return c.Low >= 0 }

// NProcs returns the number of executable-local processors the component
// spans, or -1 if the range is unspecified.
func (c Component) NProcs() int {
	if !c.Ranged() {
		return -1
	}
	return c.High - c.Low + 1
}

// Covers reports whether executable-local processor p runs this component.
func (c Component) Covers(p int) bool { return c.Ranged() && p >= c.Low && p <= c.High }

// Executable is one entry of the registration file.
type Executable struct {
	Kind       Kind
	Components []Component
	// Line is the 1-based source line the entry starts on.
	Line int
}

// Size returns the number of processors the executable needs, computed as
// max(High)+1 over its components, or -1 when unspecified (bare
// single-component entries).
func (e Executable) Size() int {
	size := -1
	for _, c := range e.Components {
		if c.Ranged() && c.High+1 > size {
			size = c.High + 1
		}
	}
	return size
}

// ComponentNames returns the entry's component names in file order.
func (e Executable) ComponentNames() []string {
	names := make([]string, len(e.Components))
	for i, c := range e.Components {
		names[i] = c.Name
	}
	return names
}

// Registry is a parsed registration file.
type Registry struct {
	Executables []Executable
	// Source is the raw text the registry was parsed from; the handshake
	// broadcasts it verbatim (paper §6: "read by the root processor ...
	// and broadcast to all processors").
	Source string
}

// ParseError reports a malformed registration file with its source line.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements the error interface with the offending line number.
func (e *ParseError) Error() string {
	return fmt.Sprintf("registry: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// directive spellings. Matching is case-insensitive, like Fortran input.
const (
	kwBegin        = "begin"
	kwEnd          = "end"
	kwMultiCompBeg = "multi_component_begin"
	kwMultiCompEnd = "multi_component_end"
	kwMultiInstBeg = "multi_instance_begin"
	kwMultiInstEnd = "multi_instance_end"
)

// reserved reports whether a token is a directive and so cannot name a
// component.
func reserved(tok string) bool {
	switch strings.ToLower(tok) {
	case kwBegin, kwEnd, kwMultiCompBeg, kwMultiCompEnd, kwMultiInstBeg, kwMultiInstEnd:
		return true
	}
	return false
}

// Parse reads a registration file from text.
func Parse(text string) (*Registry, error) {
	reg := &Registry{Source: text}
	lines := strings.Split(text, "\n")

	type state int
	const (
		beforeBegin state = iota
		top
		inMultiComp
		inMultiInst
		afterEnd
	)
	st := beforeBegin
	var cur *Executable

	for i, raw := range lines {
		lineNo := i + 1
		line := raw
		if idx := strings.IndexByte(line, '!'); idx >= 0 {
			line = line[:idx]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		head := strings.ToLower(fields[0])

		switch st {
		case beforeBegin:
			if head != kwBegin {
				return nil, errf(lineNo, "expected BEGIN, got %q", fields[0])
			}
			st = top

		case top:
			switch head {
			case kwEnd:
				st = afterEnd
			case kwMultiCompBeg:
				reg.Executables = append(reg.Executables, Executable{Kind: MultiComponent, Line: lineNo})
				cur = &reg.Executables[len(reg.Executables)-1]
				st = inMultiComp
			case kwMultiInstBeg:
				reg.Executables = append(reg.Executables, Executable{Kind: MultiInstance, Line: lineNo})
				cur = &reg.Executables[len(reg.Executables)-1]
				st = inMultiInst
			case kwBegin, kwMultiCompEnd, kwMultiInstEnd:
				return nil, errf(lineNo, "unexpected directive %q", fields[0])
			default:
				comp, err := parseBareLine(fields, lineNo)
				if err != nil {
					return nil, err
				}
				reg.Executables = append(reg.Executables, Executable{
					Kind:       SingleComponent,
					Components: []Component{comp},
					Line:       lineNo,
				})
			}

		case inMultiComp, inMultiInst:
			closer := kwMultiCompEnd
			if st == inMultiInst {
				closer = kwMultiInstEnd
			}
			if head == closer {
				if len(cur.Components) == 0 {
					return nil, errf(lineNo, "empty %s block", cur.Kind)
				}
				cur = nil
				st = top
				continue
			}
			if reserved(fields[0]) {
				return nil, errf(lineNo, "unexpected directive %q inside %s block", fields[0], cur.Kind)
			}
			comp, err := parseRangedLine(fields, lineNo)
			if err != nil {
				return nil, err
			}
			cur.Components = append(cur.Components, comp)

		case afterEnd:
			return nil, errf(lineNo, "content after END: %q", fields[0])
		}
	}

	switch st {
	case beforeBegin:
		return nil, errf(len(lines), "missing BEGIN")
	case top, inMultiComp, inMultiInst:
		return nil, errf(len(lines), "missing END")
	}
	if err := reg.Validate(); err != nil {
		return nil, err
	}
	return reg, nil
}

// ParseFile reads and parses a registration file from disk.
func ParseFile(path string) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return Parse(string(data))
}

// parseBareLine parses "name [field ...]" (single-component entry).
func parseBareLine(fields []string, line int) (Component, error) {
	name := fields[0]
	args := fields[1:]
	if len(args) > MaxFields {
		return Component{}, errf(line, "component %q: %d argument fields exceed the limit of %d", name, len(args), MaxFields)
	}
	return Component{Name: name, Low: -1, High: -1, Fields: append([]string(nil), args...), Line: line}, nil
}

// parseRangedLine parses "name low high [field ...]".
func parseRangedLine(fields []string, line int) (Component, error) {
	if len(fields) < 3 {
		return Component{}, errf(line, "component %q: expected \"name low high\", got %d tokens", fields[0], len(fields))
	}
	low, err := strconv.Atoi(fields[1])
	if err != nil {
		return Component{}, errf(line, "component %q: bad low processor %q", fields[0], fields[1])
	}
	high, err := strconv.Atoi(fields[2])
	if err != nil {
		return Component{}, errf(line, "component %q: bad high processor %q", fields[0], fields[2])
	}
	if low < 0 || high < low {
		return Component{}, errf(line, "component %q: invalid processor range %d..%d", fields[0], low, high)
	}
	args := fields[3:]
	if len(args) > MaxFields {
		return Component{}, errf(line, "component %q: %d argument fields exceed the limit of %d", fields[0], len(args), MaxFields)
	}
	return Component{Name: fields[0], Low: low, High: high, Fields: append([]string(nil), args...), Line: line}, nil
}

// Validate checks the cross-entry invariants: unique component names,
// per-executable component limits, and disjoint instance ranges.
func (r *Registry) Validate() error {
	if len(r.Executables) == 0 {
		return errf(0, "no executables between BEGIN and END")
	}
	seen := make(map[string]int) // name -> line
	for _, e := range r.Executables {
		// The 10-component limit applies to multi-component executables;
		// "there is no limit of the number of instances" (§4.4).
		if e.Kind == MultiComponent && len(e.Components) > MaxComponents {
			return errf(e.Line, "%s executable has %d components, limit is %d", e.Kind, len(e.Components), MaxComponents)
		}
		for _, c := range e.Components {
			if prev, dup := seen[c.Name]; dup {
				return errf(c.Line, "component name %q already used on line %d", c.Name, prev)
			}
			seen[c.Name] = c.Line
		}
		if e.Kind == MultiInstance {
			if err := checkDisjoint(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDisjoint verifies that instance ranges within a multi-instance
// executable do not overlap.
func checkDisjoint(e Executable) error {
	comps := append([]Component(nil), e.Components...)
	sort.Slice(comps, func(i, j int) bool { return comps[i].Low < comps[j].Low })
	for i := 1; i < len(comps); i++ {
		if comps[i].Low <= comps[i-1].High {
			return errf(comps[i].Line, "instance %q range %d..%d overlaps instance %q range %d..%d",
				comps[i].Name, comps[i].Low, comps[i].High,
				comps[i-1].Name, comps[i-1].Low, comps[i-1].High)
		}
	}
	return nil
}

// FindComponent locates a component by name. It returns the indices of the
// owning executable and of the component within it.
func (r *Registry) FindComponent(name string) (exec, comp int, ok bool) {
	for ei, e := range r.Executables {
		for ci, c := range e.Components {
			if c.Name == name {
				return ei, ci, true
			}
		}
	}
	return 0, 0, false
}

// ComponentNames returns every component name in file order.
func (r *Registry) ComponentNames() []string {
	var names []string
	for _, e := range r.Executables {
		names = append(names, e.ComponentNames()...)
	}
	return names
}

// TotalComponents returns the number of components across all executables.
func (r *Registry) TotalComponents() int {
	n := 0
	for _, e := range r.Executables {
		n += len(e.Components)
	}
	return n
}

// FindExecutableByNames returns the index of the executable whose component
// name set equals names (order-insensitive). The handshake uses it to match
// a setup call against the file (paper §4.2: name-tags "must match the
// processors_map.in file").
func (r *Registry) FindExecutableByNames(names []string) (int, bool) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	if len(want) != len(names) {
		return 0, false // duplicate names in the call
	}
	for ei, e := range r.Executables {
		if len(e.Components) != len(names) {
			continue
		}
		all := true
		for _, c := range e.Components {
			if !want[c.Name] {
				all = false
				break
			}
		}
		if all {
			return ei, true
		}
	}
	return 0, false
}

// FindMultiInstanceByPrefix returns the index of the multi-instance
// executable whose every instance name begins with prefix (paper §4.4: "the
// component name prefix ... determines that all instances of this executable
// must have component names using this prefix").
func (r *Registry) FindMultiInstanceByPrefix(prefix string) (int, bool) {
	for ei, e := range r.Executables {
		if e.Kind != MultiInstance {
			continue
		}
		all := true
		for _, c := range e.Components {
			if !strings.HasPrefix(c.Name, prefix) {
				all = false
				break
			}
		}
		if all {
			return ei, true
		}
	}
	return 0, false
}
