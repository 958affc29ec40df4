package health

// Suspects returns how many keys are currently quarantined (expired
// entries are swept first).
func (t *Tracker[K]) Suspects() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for k, until := range t.suspect {
		if now.After(until) {
			delete(t.suspect, k)
		}
	}
	return len(t.suspect)
}
