package perf

import (
	"math/rand/v2"
	"reflect"
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

// FuzzSnapshotDecode: decoding arbitrary bytes never panics, decodes to
// no more than the input holds — the slices' lengths times the bytes an
// element takes on the wire, plus the strings' lengths, whole or cut short —
// and a snapshot that decodes encodes to bytes that decode to it again.
func FuzzSnapshotDecode(f *testing.F) {
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 4; i++ {
		var s Snapshot
		fillRandom(r, reflect.ValueOf(&s).Elem())
		b, _ := s.AppendBinary(nil)
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	own := NewRank(1, 2).Snapshot() // a rank's own: AnonKB and PeakRSSKB from /proc
	b, _ := own.AppendBinary(nil)
	f.Add(b)
	zero, _ := (&Snapshot{}).AppendBinary(nil)
	f.Add(zero)
	f.Add([]byte{})
	f.Add(append(zero[:len(zero)-4:len(zero)-4], 0xff, 0xff, 0xff, 0x7f)) // a map count no input could hold
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		err := s.UnmarshalBinary(data)
		held := len(s.Component) + len(s.Host)
		for _, v := range [...][]uint64{s.Engine.RecvMsgs, s.Engine.RecvBytes, s.SentMsgs, s.SentBytes} {
			held += 8 * len(v)
		}
		for name := range s.Collectives {
			held += 4 + 6*8 + len(name)
		}
		if held > len(data) {
			t.Fatalf("%d bytes decoded to %d bytes of strings, slices and collectives", len(data), held)
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
