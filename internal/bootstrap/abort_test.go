package bootstrap

import "testing"

// TestAbortFrameRoundTrip pins the abort layout's one owner: what AbortFrame
// encodes after its five-byte prefix is what ParseAbort decodes, and nothing
// of another length is an abort body.
func TestAbortFrameRoundTrip(t *testing.T) {
	for _, c := range [][2]int{{1, AbortOriginLauncher}, {0, 0}, {-7, 12}, {1 << 40, 3}} {
		frame := AbortFrame(c[0], c[1])
		if frame[4] != AbortFrameKind || int(frame[0]) != len(frame)-4 {
			t.Fatalf("AbortFrame(%d, %d) prefix = % x", c[0], c[1], frame[:5])
		}
		code, origin, err := ParseAbort(frame[5:])
		if err != nil || code != c[0] || origin != c[1] {
			t.Errorf("ParseAbort(AbortFrame(%d, %d)) = %d, %d, %v", c[0], c[1], code, origin, err)
		}
	}
	for _, n := range []int{0, 15, 17} {
		if _, _, err := ParseAbort(make([]byte, n)); err == nil {
			t.Errorf("ParseAbort accepted a %d-byte body", n)
		}
	}
}
