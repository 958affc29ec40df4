package transport

import (
	"fmt"

	"ddstore/internal/graph"
)

// Eager decodes over the raw request path, for tests (of either test
// package) that want graphs back. Production callers keep the bytes lazy.

// GetGraph fetches and decodes one sample.
func GetGraph(c *Client, id int64) (*graph.Graph, error) {
	raw, err := c.GetRaw(id)
	if err != nil {
		return nil, err
	}
	return graph.Decode(raw)
}

// GetBatchGraphs fetches and decodes an arbitrary id list in one round trip.
func GetBatchGraphs(c *Client, ids []int64) ([]*graph.Graph, error) {
	buf, parts, err := c.GetBatchBufs(ids)
	if err != nil {
		return nil, err
	}
	defer buf.Release()
	out := make([]*graph.Graph, len(parts))
	for i, p := range parts {
		if out[i], err = graph.Decode(p); err != nil {
			return nil, fmt.Errorf("transport: sample %d: %w", ids[i], err)
		}
	}
	return out, nil
}

// NewGroup dials every peer address of a single replica and verifies the
// chunks tile a contiguous range.
func NewGroup(addrs []string) (*Group, error) {
	return NewGroupReplicas([][]string{addrs}, GroupOptions{})
}
