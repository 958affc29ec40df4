package frontend

import (
	"errors"
	"runtime"
	"testing"

	"ddstore/internal/transport"
)

// TestTicketsComeBackClean walks the three ways an admit ends — released
// normally, shed on a full queue, shed by Close while queued — and then
// empties the ticket pool: whatever came back holds no Frontend, no tenant
// and an empty grant channel, so the next admit to draw it starts from
// nothing. Run under -race -count=10 in CI.
func TestTicketsComeBackClean(t *testing.T) {
	// A sync.Pool keeps a private slot per processor that only that
	// processor can take from: on one processor everything put back is
	// there to be found. Under -race it also drops a quarter of its Puts,
	// so twelve tickets go back at once, not two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const held, queued = 8, 4
	fe := mustNew(t, Options{Workers: held, QueueDepth: queued, Tenants: []TenantConfig{{Name: "alpha"}}})
	gate := mustAdmitConn(t, fe)
	if err := gate.Hello("alpha"); err != nil {
		t.Fatal(err)
	}
	var releases []func(int64)
	for i := 0; i < held; i++ { // every worker permit taken
		release, err := gate.Admit(transport.ClassLookup)
		if err != nil {
			t.Fatalf("admit holder %d: %v", i, err)
		}
		releases = append(releases, release)
	}
	shed := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, err := gate.Admit(transport.ClassBulk) // fills the queue, shed by Close
			shed <- err
		}()
	}
	waitFor(t, func() bool { return fe.Stats().Queued == queued })
	if _, err := gate.Admit(transport.ClassBulk); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("admit on a full queue: %v, want ErrOverloaded", err)
	}
	fe.Close()
	for i := 0; i < queued; i++ {
		if err := <-shed; !errors.Is(err, transport.ErrOverloaded) {
			t.Fatalf("queued ticket on Close: %v, want ErrOverloaded", err)
		}
	}
	for _, release := range releases {
		release(1400)
	}
	gate.Close()

	recycled := 0
	for {
		tk, ok := ticketPool.Get().(*ticket)
		if !ok {
			break
		}
		recycled++
		if tk.fe != nil || tk.t != nil || len(tk.grant) != 0 {
			t.Fatalf("pooled ticket is not clean: frontend %v, tenant %v, %d pending grants", tk.fe != nil, tk.t != nil, len(tk.grant))
		}
	}
	if recycled == 0 {
		t.Fatal("no ticket came back to the pool")
	}
}
