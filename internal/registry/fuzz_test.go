package registry

import (
	"strings"
	"testing"
)

// render writes a parsed registry back out through the Builder, the one
// producer of registration-file text.
func render(reg *Registry) (string, error) {
	b := NewBuilder()
	for _, e := range reg.Executables {
		if e.Kind == SingleComponent {
			b.Single(e.Components[0].Name, e.Components[0].Fields...)
			continue
		}
		lines := make([]Line, len(e.Components))
		for i, c := range e.Components {
			lines[i] = Line{Name: c.Name, Low: c.Low, High: c.High, Fields: c.Fields}
		}
		if e.Kind == MultiInstance {
			b.MultiInstance(lines...)
		} else {
			b.MultiComponent(lines...)
		}
	}
	return b.Text()
}

// FuzzParse asserts the parser never panics and that accepted inputs
// re-render to a fixed point (Parse ∘ render is idempotent).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"BEGIN\natmosphere\nocean\nEND\n",
		"BEGIN\nMulti_Component_Begin\na 0 15\nb 0 15\nMulti_Component_End\nEND\n",
		"BEGIN\nMulti_Instance_Begin\nO1 0 7 in1 alpha=3\nO2 8 15\nMulti_Instance_End\nstat\nEND\n",
		"begin\nx\nend\n",
		"BEGIN\n! only comments\nx\nEND\n",
		"",
		"BEGIN",
		"BEGIN\nMulti_Component_Begin\nEND\n",
		"BEGIN\nocean -1 5\nEND\n",
		strings.Repeat("BEGIN\n", 10),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		reg, err := Parse(text)
		if err != nil {
			return
		}
		rendered, err := render(reg)
		if err != nil {
			t.Fatalf("the Builder rejects an accepted input: %v\ninput: %q", err, text)
		}
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of accepted input failed: %v\ninput: %q\nrendered: %q", err, text, rendered)
		}
		if twice, _ := render(again); twice != rendered {
			t.Fatalf("render not a fixed point:\n%q\nvs\n%q", rendered, twice)
		}
	})
}

// FuzzArguments asserts typed argument access never panics.
func FuzzArguments(f *testing.F) {
	f.Add("alpha=3", "alpha")
	f.Add("beta=4.5", "beta")
	f.Add("debug=on", "debug")
	f.Add("", "")
	f.Add("x=", "x")
	f.Add("=y", "")
	f.Fuzz(func(t *testing.T, field, key string) {
		a := NewArguments([]string{field})
		a.Int(key)
		a.Float(key)
		a.Bool(key)
		a.String(key)
		a.Field(1)
		a.Field(0)
	})
}
