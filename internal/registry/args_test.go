package registry

import (
	"testing"
	"testing/quick"
)

// Fields from the paper's Ocean1/Ocean2/Ocean3 example lines (§4.4).
var paperArgs = NewArguments([]string{"inf3", "outf3", "alpha=3", "beta=4.5", "debug=on"})

func TestArgumentsIntPaperExample(t *testing.T) {
	// "alpha2 will get integer 3 if a string alpha=3 is present"
	v, ok, err := paperArgs.Int("alpha")
	if err != nil || !ok || v != 3 {
		t.Fatalf("Int(alpha) = %d, %v, %v", v, ok, err)
	}
}

func TestArgumentsFloatPaperExample(t *testing.T) {
	// "beta will get real 4.5 if a string beta=4.5 is present"
	v, ok, err := paperArgs.Float("beta")
	if err != nil || !ok || v != 4.5 {
		t.Fatalf("Float(beta) = %g, %v, %v", v, ok, err)
	}
}

func TestArgumentsFieldPaperExample(t *testing.T) {
	// "fname will get string infile3 if such a string is in the first field"
	v, ok := paperArgs.Field(1)
	if !ok || v != "inf3" {
		t.Fatalf("Field(1) = %q, %v", v, ok)
	}
	if _, ok := paperArgs.Field(0); ok {
		t.Error("Field(0) should be absent (fields are 1-based)")
	}
	if _, ok := paperArgs.Field(6); ok {
		t.Error("Field(6) should be absent")
	}
	last, ok := paperArgs.Field(5)
	if !ok || last != "debug=on" {
		t.Errorf("Field(5) = %q, %v", last, ok)
	}
}

func TestArgumentsBool(t *testing.T) {
	on, ok, err := paperArgs.Bool("debug")
	if err != nil || !ok || !on {
		t.Fatalf("Bool(debug) = %v, %v, %v", on, ok, err)
	}
	off := NewArguments([]string{"debug=off"})
	v, ok, err := off.Bool("debug")
	if err != nil || !ok || v {
		t.Fatalf("Bool(debug=off) = %v, %v, %v", v, ok, err)
	}
	bad := NewArguments([]string{"debug=maybe"})
	if _, ok, err := bad.Bool("debug"); !ok || err == nil {
		t.Fatal("Bool(debug=maybe) should be present but erroneous")
	}
}

func TestArgumentsMissingKeys(t *testing.T) {
	if _, ok, err := paperArgs.Int("gamma"); ok || err != nil {
		t.Error("Int on missing key should report absent, no error")
	}
	if _, ok, err := paperArgs.Float("gamma"); ok || err != nil {
		t.Error("Float on missing key should report absent, no error")
	}
	if _, ok := paperArgs.String("gamma"); ok {
		t.Error("String on missing key should report absent")
	}
	if _, ok, err := paperArgs.Bool("gamma"); ok || err != nil {
		t.Error("Bool on missing key should report absent, no error")
	}
}

func TestArgumentsMalformedValues(t *testing.T) {
	a := NewArguments([]string{"alpha=notint", "beta=notfloat"})
	if _, ok, err := a.Int("alpha"); !ok || err == nil {
		t.Error("Int should flag a present but malformed value")
	}
	if _, ok, err := a.Float("beta"); !ok || err == nil {
		t.Error("Float should flag a present but malformed value")
	}
}

func TestArgumentsStringValue(t *testing.T) {
	a := NewArguments([]string{"dynamics=finite_volume"})
	v, ok := a.String("dynamics")
	if !ok || v != "finite_volume" {
		t.Errorf("String(dynamics) = %q, %v", v, ok)
	}
}

func TestArgumentsCopySemantics(t *testing.T) {
	raw := []string{"a=1"}
	a := NewArguments(raw)
	raw[0] = "a=2"
	v, _, _ := a.Int("a")
	if v != 1 {
		t.Error("Arguments aliases its input slice")
	}
}

func TestArgumentsFieldProperty(t *testing.T) {
	// For any field list, Field(i) for i in 1..len returns the i-1th raw
	// field, and out-of-range indices are absent.
	prop := func(fields []string) bool {
		a := NewArguments(fields)
		for i := 1; i <= len(fields); i++ {
			v, ok := a.Field(i)
			if !ok || v != fields[i-1] {
				return false
			}
		}
		_, ok0 := a.Field(0)
		_, okN := a.Field(len(fields) + 1)
		return !ok0 && !okN
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkArguments (EXPERIMENTS.md E7) measures MPH_get_argument lookups
// (§4.4) on the paper's example fields.
func BenchmarkArguments(b *testing.B) {
	b.Run("int", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := paperArgs.Int("alpha"); !ok || err != nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("float", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := paperArgs.Float("beta"); !ok || err != nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("field", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := paperArgs.Field(1); !ok {
				b.Fatal("lookup failed")
			}
		}
	})
}
