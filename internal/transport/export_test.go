package transport

import (
	"fmt"

	"ddstore/internal/graph"
	"ddstore/internal/obs/tracectx"
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

// GetRangeGraphs fetches and decodes samples [lo, hi) with the range op no
// current client sends — the request an old peer's GetRange makes, which
// the server still answers.
func GetRangeGraphs(c *Client, lo, hi int64) ([]*graph.Graph, error) {
	buf, _, err := c.do(opMulti, lo, hi, nil, tracectx.Context{})
	if err != nil {
		return nil, err
	}
	defer buf.Release()
	out := make([]*graph.Graph, 0, hi-lo)
	rest := buf.Bytes()
	for len(rest) > 0 {
		var g *graph.Graph
		if g, rest, err = graph.DecodePrefix(rest); err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	if int64(len(out)) != hi-lo {
		return nil, fmt.Errorf("transport: got %d samples for range [%d,%d)", len(out), lo, hi)
	}
	return out, nil
}
