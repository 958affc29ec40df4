package shardmap

import (
	"sync"
	"sync/atomic"
)

// DefaultHistory is how many past generations a Store keeps resolvable
// by default, so fetches pinned to a recent generation can still decode
// their owner tokens while the map advances under them.
const DefaultHistory = 8

// Store holds the live shard map generation plus a bounded history of
// recent ones. All methods are safe for concurrent use; the *Map values
// handed out are immutable.
type Store struct {
	// cur is the live generation again, where Current can read it without
	// the lock: every routed sample id asks for it, on clients and servers.
	cur     atomic.Pointer[Map]
	mu      sync.Mutex
	history []*Map // ascending by Gen; last is current
	encoded []byte // cached Encode of current, built lazily
	keep    int

	// OnApply, when set before the first ApplyIfNewer, is called
	// synchronously (outside the store lock) with every newly applied
	// generation and the number of chunk moves it took relative to its
	// predecessor.
	// This is the metrics hook: shardmap stays a stdlib-only leaf, and
	// the caller bridges to its metrics registry here.
	OnApply func(m *Map, moved int)
}

// NewStore builds a Store seeded with the given map as the live
// generation. history bounds how many generations stay resolvable via
// At (values < 1 mean DefaultHistory).
func NewStore(initial *Map, history int) (*Store, error) {
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if history < 1 {
		history = DefaultHistory
	}
	s := &Store{
		history: []*Map{initial},
		keep:    history,
	}
	s.cur.Store(initial)
	return s, nil
}

// Current returns the live generation.
func (s *Store) Current() *Map { return s.cur.Load() }

// Generation returns the live generation number.
func (s *Store) Generation() uint64 {
	return s.Current().Gen
}

// At returns the map for a specific generation, or nil if it has aged
// out of the history (callers fall back to Current and let the
// stale-generation protocol sort it out).
func (s *Store) At(gen uint64) *Map {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.history) - 1; i >= 0; i-- {
		if s.history[i].Gen == gen {
			return s.history[i]
		}
		if s.history[i].Gen < gen {
			break
		}
	}
	return nil
}

// ApplyIfNewer installs next iff its generation is strictly ahead of the
// live one, reporting whether it was installed. It is how every map
// advances: an owner applying its cluster's next generation, and a client
// refreshing from a stale-generation response, which carries the server's
// current map — possibly several generations ahead — where an out-of-order
// refresh must never roll the map back.
func (s *Store) ApplyIfNewer(next *Map) (bool, error) {
	if err := next.Validate(); err != nil {
		return false, err
	}
	s.mu.Lock()
	cur := s.history[len(s.history)-1]
	if next.Gen <= cur.Gen {
		s.mu.Unlock()
		return false, nil
	}
	moved := s.applyLocked(next)
	hook := s.OnApply
	s.mu.Unlock()
	if hook != nil {
		hook(next, moved)
	}
	return true, nil
}

// applyLocked installs next as current, trims history, and returns the
// move count vs the prior generation (0 when the geometry changed and Diff
// cannot meter it).
func (s *Store) applyLocked(next *Map) int {
	prev := s.history[len(s.history)-1]
	s.history = append(s.history, next)
	s.cur.Store(next)
	if len(s.history) > s.keep {
		s.history = s.history[len(s.history)-s.keep:]
	}
	s.encoded = nil
	moved := 0
	if moves, err := Diff(prev, next); err == nil {
		moved = len(moves)
	}
	return moved
}

// Encoded returns the wire encoding of the live generation, cached until
// the next generation is applied. This is what the server embeds in
// stale-generation responses and serves for map bootstrap, so encoding
// happens once per generation, not once per stale request.
func (s *Store) Encoded() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.encoded == nil {
		b, err := s.history[len(s.history)-1].Encode()
		if err != nil {
			return nil, err
		}
		s.encoded = b
	}
	return s.encoded, nil
}
