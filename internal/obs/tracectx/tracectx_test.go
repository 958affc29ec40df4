package tracectx

import (
	"bytes"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	c := New(true)
	if !c.Valid() {
		t.Fatal("New returned an invalid context")
	}
	enc := c.AppendTo(nil)
	if len(enc) != Size {
		t.Fatalf("encoded length %d, want %d", len(enc), Size)
	}
	got, ok := Decode(enc)
	if !ok {
		t.Fatal("Decode rejected a freshly encoded context")
	}
	if got != c {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, c)
	}

	c2 := New(false)
	got2, ok := Decode(c2.AppendTo(nil))
	if !ok || got2.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got2, ok)
	}
}

func TestDecodeIgnoresTrailingBytes(t *testing.T) {
	c := New(true)
	body := append(c.AppendTo(nil), []byte{1, 2, 3, 4, 5, 6, 7, 8}...)
	got, ok := Decode(body)
	if !ok || got != c {
		t.Fatalf("Decode with trailing bytes: got %+v ok=%v", got, ok)
	}
}

func TestDecodeRejects(t *testing.T) {
	c := New(true)
	enc := c.AppendTo(nil)

	cases := map[string][]byte{
		"nil":           nil,
		"empty":         {},
		"short":         enc[:Size-1],
		"bad version":   append([]byte{99}, enc[1:]...),
		"zero trace id": make([]byte, Size),
	}
	// A zero trace ID with a valid version byte must also be rejected.
	zeroed := append([]byte(nil), enc...)
	for i := 4; i < 12; i++ {
		zeroed[i] = 0
	}
	cases["zeroed trace id"] = zeroed

	for name, b := range cases {
		if got, ok := Decode(b); ok {
			t.Errorf("%s: Decode accepted %v as %+v", name, b, got)
		}
	}
}

func TestChild(t *testing.T) {
	root := New(true)
	ch := root.Child()
	if ch.TraceID != root.TraceID {
		t.Fatalf("child trace id %x, want %x", ch.TraceID, root.TraceID)
	}
	if ch.SpanID == root.SpanID {
		t.Fatal("child span id equals parent span id")
	}
	if !ch.Sampled {
		t.Fatal("child lost the sampled flag")
	}
	if (Context{}).Child().Valid() {
		t.Fatal("child of the zero context should be invalid")
	}
}

func TestAppendTo(t *testing.T) {
	c := New(true)
	prefix := []byte("hdr")
	out := c.AppendTo(append([]byte(nil), prefix...))
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("AppendTo clobbered the prefix")
	}
	got, ok := Decode(out[3:])
	if !ok || got != c {
		t.Fatalf("AppendTo round trip: got %+v ok=%v", got, ok)
	}
}

func TestConcurrentIDsAreDistinct(t *testing.T) {
	const workers, per = 8, 1000
	var mu sync.Mutex
	seen := make(map[uint64]bool, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, 0, 2*per)
			for i := 0; i < per; i++ {
				c := New(true)
				local = append(local, c.TraceID, c.SpanID)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range local {
				if id == 0 {
					t.Error("generated a zero id")
				}
				if seen[id] {
					t.Errorf("duplicate id %x", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestStrings(t *testing.T) {
	if (Context{}).String() != "tracectx(none)" {
		t.Fatalf("zero context string: %q", (Context{}).String())
	}
	if IDString(0) != "" {
		t.Fatalf("IDString(0) = %q, want empty", IDString(0))
	}
	if s := IDString(0xdeadbeef); len(s) != 16 {
		t.Fatalf("IDString length %d, want 16", len(s))
	}
}
