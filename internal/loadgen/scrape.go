package loadgen

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ScrapeMetrics fetches a Prometheus text exposition (the ddstore-serve
// /metrics endpoint) and returns the ddstore_* series as a flat map keyed
// by series name including labels, e.g.
//
//	ddstore_serve_requests_total{op="getbatch"} -> 1234
//	ddstore_tenant_requests_total{class="lookup",tenant="alpha"} -> 56
//
// Histogram bucket series are skipped — the harness keeps the _count and
// _sum series, which are what phase-over-phase diffs use.
func ScrapeMetrics(url string) (map[string]float64, error) {
	// Keep-alives are disabled so a finished run leaves no idle-connection
	// goroutines behind — the e2e suite asserts the harness drains clean.
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "ddstore_") {
			continue
		}
		// series and value are separated by the last space: label values
		// may contain escaped spaces, the float may not.
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			continue
		}
		series, valStr := line[:idx], line[idx+1:]
		if strings.Contains(series, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("loadgen: scrape %s: %w", url, err)
	}
	return out, nil
}
