package cluster

import (
	"fmt"
	"time"
)

// Validate checks the machine parameters for internal consistency.
func (m *Machine) Validate() error {
	switch {
	case m.GPUsPerNode <= 0:
		return fmt.Errorf("cluster: %s has %d GPUs per node", m.Name, m.GPUsPerNode)
	case m.GPUTflops <= 0:
		return fmt.Errorf("cluster: %s has non-positive GPU throughput", m.Name)
	case m.IntraNodeBandwidth <= 0 || m.InterNodeBandwidth <= 0 || m.FSBandwidth <= 0,
		m.LocalReadBandwidth <= 0:
		return fmt.Errorf("cluster: %s has a non-positive bandwidth", m.Name)
	case m.NodeMemory <= 0:
		return fmt.Errorf("cluster: %s has non-positive node memory", m.Name)
	}
	return nil
}

// RMAGet returns the modeled time for a complete single-shot one-sided Get:
// lock acquisition plus the transfer. Batched access amortizes the lock by
// calling RMALock once and RMATransfer per item, which is what DDStore does.
func (m *Machine) RMAGet(bytes int64, sameNode bool) time.Duration {
	return m.RMALock(sameNode) + m.RMATransfer(bytes, sameNode)
}
