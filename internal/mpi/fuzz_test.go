package mpi

import "testing"

// FuzzDecodeCodecs asserts the numeric codecs never panic.
func FuzzDecodeCodecs(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 7))
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 24))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if xs, err := decodeInts(buf); err == nil {
			if len(xs) != len(buf)/8 {
				t.Fatal("decodeInts length mismatch")
			}
		}
		if xs, err := decodeFloats(buf); err == nil {
			if len(xs) != len(buf)/8 {
				t.Fatal("decodeFloats length mismatch")
			}
		}
	})
}
