package mpi

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntCodecRoundTrip(t *testing.T) {
	prop := func(xs []int64) bool {
		got, err := decodeInts(encodeInts(xs))
		if err != nil {
			return false
		}
		if len(xs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, xs)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatCodecRoundTrip(t *testing.T) {
	prop := func(xs []float64) bool {
		got, err := decodeFloats(encodeFloats(xs))
		if err != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			// Compare bit patterns so NaNs round-trip too.
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsRaggedPayloads(t *testing.T) {
	for _, n := range []int{1, 7, 9, 15} {
		if _, err := decodeInts(make([]byte, n)); err == nil {
			t.Errorf("decodeInts accepted %d bytes", n)
		}
		if _, err := decodeFloats(make([]byte, n)); err == nil {
			t.Errorf("decodeFloats accepted %d bytes", n)
		}
	}
}

func TestDeriveContextProperties(t *testing.T) {
	// Deterministic.
	if deriveContext(1, 2, "x") != deriveContext(1, 2, "x") {
		t.Fatal("deriveContext not deterministic")
	}
	// Sensitive to each input.
	base := deriveContext(1, 2, "x")
	if deriveContext(2, 2, "x") == base || deriveContext(1, 3, "x") == base || deriveContext(1, 2, "y") == base {
		t.Fatal("deriveContext ignores an input")
	}
	// Never returns the reserved zero context.
	prop := func(parent, seq uint64, label string) bool {
		return deriveContext(parent, seq, label) != 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveContextIsFNV1a: the inlined hash is hash/fnv's New64a over the
// big-endian parent and seq and the label, so ranks built before and after
// the inlining derive the same contexts.
func TestDeriveContextIsFNV1a(t *testing.T) {
	prop := func(parent, seq uint64, label string) bool {
		h := fnv.New64a()
		h.Write(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, parent), seq))
		h.Write([]byte(label))
		want := h.Sum64()
		if want == 0 {
			want = 1
		}
		return deriveContext(parent, seq, label) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
	if got := deriveContext(worldContext, 0, "atmosphere"); got != 0x266b48e83716bc3e {
		t.Errorf("deriveContext(1, 0, atmosphere) = %#x", got)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpSum: "sum", OpProd: "prod", OpMax: "max", OpMin: "min", Op(99): "Op(99)"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

func TestMessageMatches(t *testing.T) {
	m := &Packet{Ctx: 5, Src: 2, Tag: 9}
	cases := []struct {
		ctx      uint64
		src, tag int
		want     bool
	}{
		{5, 2, 9, true},
		{5, AnySource, 9, true},
		{5, 2, AnyTag, true},
		{5, AnySource, AnyTag, true},
		{6, 2, 9, false},
		{5, 3, 9, false},
		{5, 2, 8, false},
	}
	for i, tc := range cases {
		if got := m.matches(tc.ctx, tc.src, tc.tag); got != tc.want {
			t.Errorf("case %d: matches = %v, want %v", i, got, tc.want)
		}
	}
}
