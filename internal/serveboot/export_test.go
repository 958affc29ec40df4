package serveboot

// Resident returns how many samples the owner holds (0 when the cluster
// serves lazily: the cache is the cluster's, not an owner's).
func (o *Owner) Resident() (n int) {
	o.chunk.mu.RLock()
	defer o.chunk.mu.RUnlock()
	for _, p := range o.chunk.shards {
		if p != nil {
			n += len(p.Ends)
		}
	}
	return n
}

// residentBytes returns the summed length and capacity of the packed
// buffers the owner holds.
func (o *Owner) residentBytes() (size, capacity int64) {
	o.chunk.mu.RLock()
	defer o.chunk.mu.RUnlock()
	for _, p := range o.chunk.shards {
		if p != nil {
			size += int64(len(p.Buf))
			capacity += int64(cap(p.Buf))
		}
	}
	return size, capacity
}

// metricsURL is the cluster's /metrics scrape URL.
func metricsURL(c *Cluster) string { return "http://" + c.DebugAddr() + "/metrics" }
