package shardmap

import (
	"sync"
	"sync/atomic"
)

// keepGenerations is how many recent generations a Store keeps
// resolvable, so fetches pinned to a recent generation can still decode
// their owner tokens while the map advances under them.
const keepGenerations = 8

// Store holds the live shard map generation plus the last keepGenerations
// generations. All methods are safe for concurrent use; the *Map values
// handed out are immutable.
type Store struct {
	// cur is the live generation again, where Current can read it without
	// the lock: every routed sample id asks for it, on clients and servers.
	cur     atomic.Pointer[Map]
	mu      sync.Mutex
	history []*Map // ascending by Gen; last is current
	encoded []byte // cached Encode of current, built lazily
}

// NewStore builds a Store seeded with the given map as the live
// generation.
func NewStore(initial *Map) (*Store, error) {
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	s := &Store{history: []*Map{initial}}
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
	defer s.mu.Unlock()
	if next.Gen <= s.history[len(s.history)-1].Gen {
		return false, nil
	}
	s.history = append(s.history, next)
	if len(s.history) > keepGenerations {
		s.history = s.history[len(s.history)-keepGenerations:]
	}
	s.encoded = nil
	s.cur.Store(next)
	return true, nil
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
