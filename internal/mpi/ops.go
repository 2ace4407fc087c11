package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Op names an elementwise reduction operation for the typed reduce
// wrappers.
type Op int

// Supported reduction operations.
const (
	OpSum Op = iota
	OpProd
	OpMax
	OpMin
)

// String returns the conventional name of the operation.
func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// The combine closures work directly on the 8-byte little-endian wire form
// and write the result into the incoming side's storage: reductions run once
// per received message, so a decode/combine/encode round trip here is the
// dominant allocation source of every typed reduction (and of the ring
// allreduce, which combines one chunk per ring step).

func combineFloats(op Op) func(acc, in []byte) ([]byte, error) {
	return func(acc, in []byte) ([]byte, error) {
		if err := combineCheck(op, acc, in); err != nil {
			return nil, err
		}
		for i := 0; i < len(in); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(in[i:]))
			switch op {
			case OpSum:
				b = a + b
			case OpProd:
				b = a * b
			case OpMax:
				if a > b {
					b = a
				}
			case OpMin:
				if a < b {
					b = a
				}
			}
			binary.LittleEndian.PutUint64(in[i:], math.Float64bits(b))
		}
		return in, nil
	}
}

func combineInts(op Op) func(acc, in []byte) ([]byte, error) {
	return func(acc, in []byte) ([]byte, error) {
		if err := combineCheck(op, acc, in); err != nil {
			return nil, err
		}
		for i := 0; i < len(in); i += 8 {
			a := int64(binary.LittleEndian.Uint64(acc[i:]))
			b := int64(binary.LittleEndian.Uint64(in[i:]))
			switch op {
			case OpSum:
				b = a + b
			case OpProd:
				b = a * b
			case OpMax:
				if a > b {
					b = a
				}
			case OpMin:
				if a < b {
					b = a
				}
			}
			binary.LittleEndian.PutUint64(in[i:], uint64(b))
		}
		return in, nil
	}
}

// combineCheck validates one elementwise combine up front so the loops stay
// branch-light.
func combineCheck(op Op, acc, in []byte) error {
	if op < OpSum || op > OpMin {
		return fmt.Errorf("mpi: unknown op %v", op)
	}
	if len(acc) != len(in) {
		return fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(acc)/8, len(in)/8)
	}
	if len(in)%8 != 0 {
		return fmt.Errorf("mpi: reduce payload length %d not a multiple of 8", len(in))
	}
	return nil
}

// AllreduceFloats combines xs elementwise across ranks and returns the
// result at every rank, in a slice of the caller's own — the call's one
// allocation on the small-payload paths: xs goes out as it lies on a
// little-endian host (floatPayload) and the result is decoded straight from
// the collective's buffer. The 8-byte element encoding lets the size-based
// selector use the ring algorithm for large slices.
func (c *Comm) AllreduceFloats(xs []float64, op Op) ([]float64, error) {
	out, _, err := c.allreduce(floatPayload(xs), 8, combineFloats(op))
	if err != nil {
		return nil, err
	}
	return decodeFloats(out)
}

// AllreduceInts combines xs elementwise across ranks and returns the result
// at every rank. The 8-byte element encoding lets the size-based selector
// use the ring algorithm for large slices.
func (c *Comm) AllreduceInts(xs []int64, op Op) ([]int64, error) {
	out, _, err := c.allreduce(encodeInts(xs), 8, combineInts(op))
	if err != nil {
		return nil, err
	}
	return decodeInts(out)
}

// BcastFloats broadcasts a float64 slice from root.
func (c *Comm) BcastFloats(root int, xs []float64) ([]float64, error) {
	var payload []byte
	if c.rank == root {
		payload = encodeFloats(xs)
	}
	out, err := c.Bcast(root, payload)
	if err != nil {
		return nil, err
	}
	return decodeFloats(out)
}
