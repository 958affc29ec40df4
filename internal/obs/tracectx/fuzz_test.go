package tracectx

import (
	"bytes"
	"testing"
)

// FuzzDecode pins the frame path's safety contract: Decode must never
// panic, must reject anything that is not a well-formed context, and must
// round-trip exactly what it accepts. Mutated, truncated, and hostile
// inputs therefore silently disable tracing instead of failing requests.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(make([]byte, Size))
	f.Add(New(true).AppendTo(nil))
	f.Add(New(false).AppendTo(nil))
	f.Add(bytes.Repeat([]byte{0xff}, Size))
	f.Add(bytes.Repeat([]byte{0xff}, Size+7))
	f.Add([]byte{Version})

	f.Fuzz(func(t *testing.T, b []byte) {
		c, ok := Decode(b) // must not panic, whatever b holds
		if !ok {
			if c != (Context{}) {
				t.Fatalf("rejected input returned non-zero context %+v", c)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("Decode accepted an invalid context %+v", c)
		}
		// Accepted contexts re-encode to a block Decode accepts identically.
		again, ok2 := Decode(c.AppendTo(nil))
		if !ok2 || again != c {
			t.Fatalf("re-encode round trip: got %+v ok=%v want %+v", again, ok2, c)
		}
	})
}
