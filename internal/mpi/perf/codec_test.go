package perf

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
)

// fillRandom sets every field v holds, however deep, to a random value: a
// field added to Snapshot and missed by its codec fails the round trip. A
// slice or map comes out nil or with one to four entries, as a decoder
// returns them.
func fillRandom(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(r, v.Field(i))
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(r.Uint64()))
	case reflect.Uint64:
		v.SetUint(r.Uint64())
	case reflect.Bool:
		v.SetBool(r.IntN(2) == 1)
	case reflect.String:
		b := make([]byte, r.IntN(12))
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		v.SetString(string(b))
	case reflect.Slice:
		if n := r.IntN(5); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillRandom(r, v.Index(i))
			}
		}
	case reflect.Map:
		if n := r.IntN(5); n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < n; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fillRandom(r, k)
				fillRandom(r, e)
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic("fillRandom: no case for " + v.Type().String())
	}
}

// TestSnapshotBinaryRoundTrip: every Snapshot, whatever its fields hold,
// decodes from its binary encoding to itself, and the encoding is appended
// to what the buffer already held.
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		var s Snapshot
		if i > 0 {
			fillRandom(r, reflect.ValueOf(&s).Elem())
		}
		b, err := s.AppendBinary([]byte("prefix"))
		if err != nil || string(b[:6]) != "prefix" {
			t.Fatalf("AppendBinary = %q…, %v", b[:min(len(b), 6)], err)
		}
		var back Snapshot
		if err := back.UnmarshalBinary(b[6:]); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("snapshot %d came back as\n%+v\nwant\n%+v", i, back, s)
		}
		if back.UnmarshalBinary(b[6:len(b)-1]) == nil {
			t.Fatalf("snapshot %d decoded one byte short", i)
		}
	}
}

// FuzzSnapshotDecode: decoding arbitrary bytes never panics, allocates no
// more than a small multiple of the input's length, and a snapshot that
// decodes encodes to bytes that decode to it again.
func FuzzSnapshotDecode(f *testing.F) {
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 4; i++ {
		var s Snapshot
		fillRandom(r, reflect.ValueOf(&s).Elem())
		b, _ := s.AppendBinary(nil)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	zero, _ := (&Snapshot{}).AppendBinary(nil)
	f.Add(zero)
	f.Add([]byte{})
	f.Add(append(zero[:len(zero)-4:len(zero)-4], 0xff, 0xff, 0xff, 0x7f)) // a map count no input could hold
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzzing engine allocates beside the decoder now and then: a
		// decode over the bound is tried again, up to five times in all.
		var s Snapshot
		var err error
		for try := 1; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s = Snapshot{}
			err = s.UnmarshalBinary(data)
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= uint64(4*len(data)+4096) {
				break
			}
			if try == 5 {
				t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
			}
		}
		if err != nil {
			return
		}
		b, _ := s.AppendBinary(nil)
		var again Snapshot
		if err := again.UnmarshalBinary(b); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("re-encoded snapshot came back as %+v (%v), want %+v", again, err, s)
		}
	})
}
