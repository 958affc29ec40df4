// Package health is the shared peer-quarantine bookkeeping used by the
// failover paths: transport.Group's replica failover and the shardmap
// migration puller both track suspects through one Tracker instead of
// two hand-rolled cooldown maps.
//
// The model is deliberately small — this is a local hint, not a failure
// detector: marking a peer suspect quarantines it for a cooldown window
// so callers prefer other replicas instead of paying a full retry
// schedule against a dead host on every request. Quarantined peers are
// still reachable (callers run a last-resort pass over them), and one
// healthy response clears the suspicion immediately.
package health

import (
	"sync"
	"time"
)

// Tracker quarantines keys for a cooldown window. K is whatever
// identifies a peer at the call site: transport.Group uses
// {replica, member} index pairs, the migration puller uses member IDs.
// The zero duration means DefaultCooldown; a negative duration disables
// quarantine entirely (InCooldown is always false). Safe for concurrent
// use.
type Tracker[K comparable] struct {
	cooldown time.Duration
	now      func() time.Time

	mu      sync.Mutex
	suspect map[K]time.Time // key -> quarantine expiry
}

// DefaultCooldown is how long a suspect stays quarantined when the
// Tracker is built with a zero cooldown.
const DefaultCooldown = time.Second

// NewTracker builds a Tracker with the given cooldown (0 means
// DefaultCooldown, negative disables quarantine).
func NewTracker[K comparable](cooldown time.Duration) *Tracker[K] {
	return NewTrackerClock[K](cooldown, time.Now)
}

// NewTrackerClock is NewTracker with an injectable clock, for tests that
// need to step time instead of sleeping through cooldowns.
func NewTrackerClock[K comparable](cooldown time.Duration, now func() time.Time) *Tracker[K] {
	if cooldown == 0 {
		cooldown = DefaultCooldown
	}
	return &Tracker[K]{
		cooldown: cooldown,
		now:      now,
		suspect:  make(map[K]time.Time),
	}
}

// MarkSuspect quarantines k for the cooldown window, restarting the
// window if k is already quarantined. No-op when quarantine is disabled.
func (t *Tracker[K]) MarkSuspect(k K) {
	if t.cooldown < 0 {
		return
	}
	t.mu.Lock()
	t.suspect[k] = t.now().Add(t.cooldown)
	t.mu.Unlock()
}

// Clear removes k's quarantine — called on any healthy response, so one
// success forgives a peer immediately instead of waiting out the window.
func (t *Tracker[K]) Clear(k K) {
	t.mu.Lock()
	delete(t.suspect, k)
	t.mu.Unlock()
}

// InCooldown reports whether k is currently quarantined, expiring the
// entry lazily once the window has passed.
func (t *Tracker[K]) InCooldown(k K) bool {
	if t.cooldown < 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	until, ok := t.suspect[k]
	if !ok {
		return false
	}
	if t.now().After(until) {
		delete(t.suspect, k)
		return false
	}
	return true
}
