package serveboot

// Resident returns how many samples the owner holds (0 when the cluster
// serves lazily: the cache is the cluster's, not an owner's).
func (o *Owner) Resident() (n int) {
	o.chunk.mu.RLock()
	defer o.chunk.mu.RUnlock()
	for _, b := range o.chunk.held {
		if b != nil {
			n++
		}
	}
	return n
}

// metricsURL is the cluster's /metrics scrape URL.
func metricsURL(c *Cluster) string { return "http://" + c.DebugAddr() + "/metrics" }
