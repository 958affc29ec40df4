package faultnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeOps runs a fixed read/write sequence through a wrapped pipe end and
// returns the injector's stats — the determinism probe.
func pipeOps(t *testing.T, sc Scenario, ops int) Stats {
	t.Helper()
	in := New(sc)
	a, b := net.Pipe()
	defer b.Close()
	wrapped := in.Conn(a)
	defer wrapped.Close()

	// Drain the far end so writes complete.
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
			b.Write(buf[:1])
		}
	}()
	msg := []byte("0123456789abcdef")
	one := make([]byte, 1)
	for i := 0; i < ops; i++ {
		if _, err := wrapped.Write(msg); err != nil {
			break // injected reset: the sequence ends here, deterministically
		}
		if _, err := io.ReadFull(wrapped, one); err != nil {
			break
		}
	}
	return in.Stats()
}

func TestInjectionIsDeterministic(t *testing.T) {
	sc := Scenario{Seed: 77, ResetProb: 0.02, StallProb: 0.05, StallFor: time.Millisecond,
		CorruptProb: 0.1, PartialWriteProb: 0.02}
	first := pipeOps(t, sc, 200)
	for i := 0; i < 3; i++ {
		if got := pipeOps(t, sc, 200); got != first {
			t.Fatalf("run %d: stats %+v, first run %+v", i, got, first)
		}
	}
	if first == (Stats{Conns: first.Conns}) {
		t.Fatalf("scenario injected nothing: %+v", first)
	}
	// A different seed must give a different fault sequence.
	sc2 := sc
	sc2.Seed = 78
	if got := pipeOps(t, sc2, 200); got == first {
		t.Fatalf("seed 77 and 78 injected identically: %+v", got)
	}
}

func TestCorruptWriteFlipsExactlyOneByte(t *testing.T) {
	in := New(Scenario{Seed: 1, CorruptProb: 1})
	a, b := net.Pipe()
	defer b.Close()
	wrapped := in.Conn(a)
	defer wrapped.Close()

	msg := []byte("hello, fabric")
	got := make([]byte, len(msg))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(b, got)
		done <- err
	}()
	if _, err := wrapped.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range msg {
		if msg[i] != got[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1 (%q -> %q)", diff, msg, got)
	}
	// The caller's buffer must stay pristine.
	if string(msg) != "hello, fabric" {
		t.Fatalf("caller buffer mutated: %q", msg)
	}
	if in.Stats().Corruptions != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}

func TestResetAbortsConnection(t *testing.T) {
	in := New(Scenario{Seed: 1, ResetProb: 1})
	a, b := net.Pipe()
	defer b.Close()
	wrapped := in.Conn(a)
	defer wrapped.Close()
	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Every later operation fails too: the connection is dead.
	if _, err := wrapped.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after reset: %v", err)
	}
	if in.Stats().Resets != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}

func TestSlowStartHitsFirstOpOnly(t *testing.T) {
	in := New(Scenario{Seed: 2, SlowStart: 30 * time.Millisecond})
	a, b := net.Pipe()
	defer b.Close()
	wrapped := in.Conn(a)
	defer wrapped.Close()
	go io.Copy(io.Discard, b)

	start := time.Now()
	wrapped.Write([]byte("x"))
	firstOp := time.Since(start)
	start = time.Now()
	wrapped.Write([]byte("x"))
	secondOp := time.Since(start)
	if firstOp < 25*time.Millisecond {
		t.Fatalf("first op took %v, slow-start not applied", firstOp)
	}
	if secondOp > 20*time.Millisecond {
		t.Fatalf("second op took %v, slow-start misapplied", secondOp)
	}
	if in.Stats().SlowStarts != 1 {
		t.Fatalf("stats: %+v", in.Stats())
	}
}
