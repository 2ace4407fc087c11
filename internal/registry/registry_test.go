package registry

import (
	"strings"
	"testing"
)

// The SCME example of paper §4.1.
const scmeFile = `
BEGIN
atmosphere
ocean
land
ice
coupler
END
`

// The MCSE example of paper §4.2.
const mcseFile = `
BEGIN
Multi_Component_Begin
atmosphere 0 15
ocean 16 31
coupler 32 35
Multi_Component_End
END
`

// The MCME example of paper §4.3, comments included.
const mcmeFile = `
BEGIN
Multi_Component_Begin ! 1st multi-comp exec
atmosphere 0 15
land       0 15      ! overlap with atm
chemistry 16 19
Multi_Component_End
Multi_Component_Begin ! 2nd multi-comp exec
ocean 0 15
ice  16 31
Multi_Component_End
coupler              ! a single-comp exec
END
`

// The MIME example of paper §4.4.
const mimeFile = `
BEGIN
Multi_Instance_Begin ! a multi-instance exec
Ocean1 0 15 infl outfl logf alpha=3 debug=on
Ocean2 16 31 inf2 outf2 beta=4.5 debug=off
Ocean3 32 47 inf3 dynamics=finite_volume
Multi_Instance_End
statistics ! a single-component exec
END
`

func TestParseSCME(t *testing.T) {
	reg, err := Parse(scmeFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Executables) != 5 {
		t.Fatalf("got %d executables", len(reg.Executables))
	}
	want := []string{"atmosphere", "ocean", "land", "ice", "coupler"}
	for i, e := range reg.Executables {
		if e.Kind != SingleComponent {
			t.Errorf("exec %d kind %v", i, e.Kind)
		}
		if e.Components[0].Name != want[i] {
			t.Errorf("exec %d name %q, want %q", i, e.Components[0].Name, want[i])
		}
		if e.Components[0].Ranged() {
			t.Errorf("exec %d should be unranged", i)
		}
		if e.Size() != -1 {
			t.Errorf("exec %d size %d, want -1", i, e.Size())
		}
	}
}

func TestParseMCSE(t *testing.T) {
	reg, err := Parse(mcseFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Executables) != 1 {
		t.Fatalf("got %d executables", len(reg.Executables))
	}
	e := reg.Executables[0]
	if e.Kind != MultiComponent || len(e.Components) != 3 {
		t.Fatalf("kind %v, %d components", e.Kind, len(e.Components))
	}
	if e.Size() != 36 {
		t.Errorf("size %d, want 36", e.Size())
	}
	ocean := e.Components[1]
	if ocean.Name != "ocean" || ocean.Low != 16 || ocean.High != 31 || ocean.NProcs() != 16 {
		t.Errorf("ocean = %+v", ocean)
	}
	if !ocean.Covers(16) || !ocean.Covers(31) || ocean.Covers(15) || ocean.Covers(32) {
		t.Error("ocean coverage wrong")
	}
}

func TestParseMCME(t *testing.T) {
	reg, err := Parse(mcmeFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Executables) != 3 {
		t.Fatalf("got %d executables", len(reg.Executables))
	}
	if reg.Executables[0].Kind != MultiComponent || len(reg.Executables[0].Components) != 3 {
		t.Errorf("exec 0: %+v", reg.Executables[0])
	}
	if got := reg.Executables[0].Size(); got != 20 {
		t.Errorf("exec 0 size %d, want 20", got)
	}
	if got := reg.Executables[1].Size(); got != 32 {
		t.Errorf("exec 1 size %d, want 32", got)
	}
	if reg.Executables[2].Kind != SingleComponent || reg.Executables[2].Components[0].Name != "coupler" {
		t.Errorf("exec 2: %+v", reg.Executables[2])
	}
	// atmosphere and land overlap completely — legal in multi-component.
	atm := reg.Executables[0].Components[0]
	land := reg.Executables[0].Components[1]
	if atm.Low != land.Low || atm.High != land.High {
		t.Error("expected complete overlap of atmosphere and land")
	}
	if reg.TotalComponents() != 6 {
		t.Errorf("TotalComponents = %d, want 6", reg.TotalComponents())
	}
}

func TestParseMIME(t *testing.T) {
	reg, err := Parse(mimeFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Executables) != 2 {
		t.Fatalf("got %d executables", len(reg.Executables))
	}
	mi := reg.Executables[0]
	if mi.Kind != MultiInstance || len(mi.Components) != 3 {
		t.Fatalf("exec 0: kind %v, %d instances", mi.Kind, len(mi.Components))
	}
	if mi.Size() != 48 {
		t.Errorf("size %d, want 48", mi.Size())
	}
	o1 := mi.Components[0]
	if len(o1.Fields) != 5 || o1.Fields[0] != "infl" || o1.Fields[4] != "debug=on" {
		t.Errorf("Ocean1 fields %v", o1.Fields)
	}
	idx, ok := reg.FindMultiInstanceByPrefix("Ocean")
	if !ok || idx != 0 {
		t.Errorf("FindMultiInstanceByPrefix = %d, %v", idx, ok)
	}
	if _, ok := reg.FindMultiInstanceByPrefix("Atmos"); ok {
		t.Error("found multi-instance exec for wrong prefix")
	}
}

func TestFindComponent(t *testing.T) {
	reg, err := Parse(mcmeFile)
	if err != nil {
		t.Fatal(err)
	}
	ei, ci, ok := reg.FindComponent("ice")
	if !ok || ei != 1 || ci != 1 {
		t.Errorf("FindComponent(ice) = %d, %d, %v", ei, ci, ok)
	}
	if _, _, ok := reg.FindComponent("nope"); ok {
		t.Error("found nonexistent component")
	}
}

func TestFindExecutableByNames(t *testing.T) {
	reg, err := Parse(mcmeFile)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		names []string
		want  int
		ok    bool
	}{
		{[]string{"atmosphere", "land", "chemistry"}, 0, true},
		{[]string{"chemistry", "atmosphere", "land"}, 0, true}, // order-insensitive
		{[]string{"ocean", "ice"}, 1, true},
		{[]string{"coupler"}, 2, true},
		{[]string{"ocean"}, 0, false},                   // subset does not match
		{[]string{"ocean", "ice", "coupler"}, 0, false}, // superset does not match
		{[]string{"ocean", "ocean"}, 0, false},          // duplicates rejected
	}
	for _, tc := range cases {
		got, ok := reg.FindExecutableByNames(tc.names)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("FindExecutableByNames(%v) = %d, %v; want %d, %v", tc.names, got, ok, tc.want, tc.ok)
		}
	}
}

func TestComponentNamesOrder(t *testing.T) {
	reg, err := Parse(mcmeFile)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"atmosphere", "land", "chemistry", "ocean", "ice", "coupler"}
	got := reg.ComponentNames()
	if len(got) != len(want) {
		t.Fatalf("names %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRoundTripString renders each paper example back to text through the
// Builder: the text parses, and rendering it again gives the same string.
func TestRoundTripString(t *testing.T) {
	for _, src := range []string{scmeFile, mcseFile, mcmeFile, mimeFile} {
		reg, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text, err := render(reg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of the rendered text failed: %v\n%s", err, text)
		}
		if twice, _ := render(again); twice != text {
			t.Errorf("rendering is not a fixed point:\n%s\nvs\n%s", text, twice)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing begin", "atmosphere\nEND\n", "expected BEGIN"},
		{"missing end", "BEGIN\natmosphere\n", "missing END"},
		{"empty", "", "missing BEGIN"},
		{"empty body", "BEGIN\nEND\n", "no executables"},
		{"content after end", "BEGIN\nocean\nEND\nextra\n", "content after END"},
		{"unterminated block", "BEGIN\nMulti_Component_Begin\nocean 0 3\nEND\n", "unexpected directive"},
		{"empty block", "BEGIN\nMulti_Component_Begin\nMulti_Component_End\nEND\n", "empty"},
		{"bad low", "BEGIN\nMulti_Component_Begin\nocean x 3\nMulti_Component_End\nEND\n", "bad low"},
		{"bad high", "BEGIN\nMulti_Component_Begin\nocean 0 y\nMulti_Component_End\nEND\n", "bad high"},
		{"negative range", "BEGIN\nMulti_Component_Begin\nocean -1 3\nMulti_Component_End\nEND\n", "invalid processor range"},
		{"inverted range", "BEGIN\nMulti_Component_Begin\nocean 5 3\nMulti_Component_End\nEND\n", "invalid processor range"},
		{"missing range", "BEGIN\nMulti_Component_Begin\nocean 5\nMulti_Component_End\nEND\n", "expected"},
		{"duplicate names", "BEGIN\nocean\nocean\nEND\n", "already used"},
		{"duplicate across blocks", "BEGIN\nocean\nMulti_Component_Begin\nocean 0 3\nMulti_Component_End\nEND\n", "already used"},
		{"overlapping instances", "BEGIN\nMulti_Instance_Begin\nO1 0 15\nO2 10 20\nMulti_Instance_End\nEND\n", "overlaps"},
		{"too many fields", "BEGIN\nMulti_Instance_Begin\nO1 0 3 a b c d e f\nMulti_Instance_End\nEND\n", "exceed the limit"},
		{"nested block", "BEGIN\nMulti_Component_Begin\nMulti_Instance_Begin\nMulti_Component_End\nEND\n", "unexpected directive"},
		{"stray closer", "BEGIN\nMulti_Component_End\nEND\n", "unexpected directive"},
		{"double begin", "BEGIN\nBEGIN\nEND\n", "unexpected directive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("BEGIN\nocean\nocean\nEND\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line %d, want 3", pe.Line)
	}
}

func TestOverlapAllowedInMultiComponent(t *testing.T) {
	src := "BEGIN\nMulti_Component_Begin\na 0 15\nb 0 15\nMulti_Component_End\nEND\n"
	if _, err := Parse(src); err != nil {
		t.Fatalf("complete overlap rejected in multi-component: %v", err)
	}
}

func TestTooManyComponents(t *testing.T) {
	var b strings.Builder
	b.WriteString("BEGIN\nMulti_Component_Begin\n")
	for i := 0; i <= MaxComponents; i++ {
		b.WriteString(strings.Repeat("x", i+1) + " 0 3\n")
	}
	b.WriteString("Multi_Component_End\nEND\n")
	if _, err := Parse(b.String()); err == nil {
		t.Fatalf("accepted %d components", MaxComponents+1)
	}
}

func TestCaseInsensitiveDirectives(t *testing.T) {
	src := "begin\nMULTI_COMPONENT_BEGIN\nocean 0 3\nmulti_component_end\nend\n"
	reg, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Executables[0].Kind != MultiComponent {
		t.Errorf("kind %v", reg.Executables[0].Kind)
	}
}

func TestKindString(t *testing.T) {
	if SingleComponent.String() != "single-component" ||
		MultiComponent.String() != "multi-component" ||
		MultiInstance.String() != "multi-instance" {
		t.Error("Kind.String spellings changed")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown Kind should include its value")
	}
}
