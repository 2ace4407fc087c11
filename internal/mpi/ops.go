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
// and fold the incoming payload into the accumulator's storage, returning
// it: reductions run once per received message, so a decode/combine/encode
// round trip here is the dominant allocation source of every typed
// reduction (and of the ring allreduce, which combines one chunk per ring
// step), and an accumulator that stays put is what lets the tree receive
// every child's payload into one buffer (reduceTree).

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
				a += b
			case OpProd:
				a *= b
			case OpMax: // b unless a is greater, as NaN and signed zeros have always come out
				if !(a > b) {
					a = b
				}
			case OpMin:
				if !(a < b) {
					a = b
				}
			}
			binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(a))
		}
		return acc, nil
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
				a += b
			case OpProd:
				a *= b
			case OpMax:
				if b > a {
					a = b
				}
			case OpMin:
				if b < a {
					a = b
				}
			}
			binary.LittleEndian.PutUint64(acc[i:], uint64(a))
		}
		return acc, nil
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

// AllreduceFloats combines xs elementwise across ranks and writes the
// result into xs, at every rank, and returns xs: MPI_Allreduce with
// MPI_IN_PLACE. On the small-payload paths the call allocates nothing: xs
// goes out as it lies on a little-endian host (floatPayload), the
// collective works in the communicator's scratch and the result is decoded
// from there into xs. The 8-byte element encoding lets the size-based
// selector use the ring algorithm for large slices.
func (c *Comm) AllreduceFloats(xs []float64, op Op) ([]float64, error) {
	out, _, err := c.allreduce(floatPayload(xs), 8, combineFloats(op))
	if err == nil {
		err = decodeFloatsInto(xs, out)
	}
	if err != nil {
		return nil, err
	}
	return xs, nil
}

// AllreduceInts combines xs elementwise across ranks and writes the result
// into xs, at every rank, and returns xs, as AllreduceFloats does. The
// 8-byte element encoding lets the size-based selector use the ring
// algorithm for large slices.
func (c *Comm) AllreduceInts(xs []int64, op Op) ([]int64, error) {
	out, _, err := c.allreduce(encodeInts(xs), 8, combineInts(op))
	if err == nil {
		err = decodeIntsInto(xs, out)
	}
	if err != nil {
		return nil, err
	}
	return xs, nil
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
