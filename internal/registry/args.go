package registry

import (
	"fmt"
	"strconv"
	"strings"
)

// Arguments provides typed access to the argument strings appended to a
// component or instance line — the paper's MPH_get_argument facility
// (§4.4): "alpha=3" yields integer 3 for key "alpha", "beta=4.5" yields
// real 4.5, and positional fields are addressed by 1-based field number.
type Arguments struct {
	fields []string
}

// NewArguments wraps a line's argument fields.
func NewArguments(fields []string) Arguments {
	return Arguments{fields: append([]string(nil), fields...)}
}

// lookup finds "key=value" among the fields.
func (a Arguments) lookup(key string) (string, bool) {
	prefix := key + "="
	for _, f := range a.fields {
		if strings.HasPrefix(f, prefix) {
			return f[len(prefix):], true
		}
	}
	return "", false
}

// String returns the value of "key=value", reporting presence.
func (a Arguments) String(key string) (string, bool) {
	return a.lookup(key)
}

// Int parses the value of "key=value" as an integer. The boolean reports
// whether the key is present; a present but malformed value is an error.
func (a Arguments) Int(key string) (int, bool, error) {
	v, ok := a.lookup(key)
	if !ok {
		return 0, false, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, true, fmt.Errorf("registry: argument %s=%q is not an integer", key, v)
	}
	return n, true, nil
}

// Float parses the value of "key=value" as a float64.
func (a Arguments) Float(key string) (float64, bool, error) {
	v, ok := a.lookup(key)
	if !ok {
		return 0, false, nil
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, true, fmt.Errorf("registry: argument %s=%q is not a real number", key, v)
	}
	return x, true, nil
}

// Bool parses the value of "key=value" as a flag; "on", "true", "yes" and
// "1" are true, "off", "false", "no" and "0" are false (the paper's
// "debug=on" / "debug=off").
func (a Arguments) Bool(key string) (bool, bool, error) {
	v, ok := a.lookup(key)
	if !ok {
		return false, false, nil
	}
	switch strings.ToLower(v) {
	case "on", "true", "yes", "1":
		return true, true, nil
	case "off", "false", "no", "0":
		return false, true, nil
	}
	return false, true, fmt.Errorf("registry: argument %s=%q is not a flag", key, v)
}

// Field returns the n-th argument field (1-based, matching the paper's
// field_num convention), reporting presence.
func (a Arguments) Field(n int) (string, bool) {
	if n < 1 || n > len(a.fields) {
		return "", false
	}
	return a.fields[n-1], true
}
