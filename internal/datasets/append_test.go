package datasets

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// appendCase is one dataset as AppendSample sees it: generating, or
// encoding its cache.
type appendCase struct {
	name string
	d    *Dataset
}

// appendCases is every kind, smooth on a small grid, each without and with
// EnableCache.
func appendCases(n int) []appendCase {
	var cases []appendCase
	for _, cached := range []bool{false, true} {
		for _, d := range allDatasets(Config{NumGraphs: n, SpectrumBins: 37}) {
			name := d.Name()
			if cached {
				d.EnableCache()
				name += " (cached)"
			}
			cases = append(cases, appendCase{name, d})
		}
	}
	return cases
}

// TestAppendSampleMatchesSample is the differential test of the two ways a
// sample leaves its generator: AppendSample(prefix, id) is prefix followed
// by Sample(id)'s encoding, into a buffer with room (which it must not
// regrow) and into one with none (whose bytes it must not touch).
func TestAppendSampleMatchesSample(t *testing.T) {
	const n = 300
	prefix := []byte("prefix:")
	for _, c := range appendCases(n) {
		roomy := make([]byte, 0, 1<<16)
		for id := int64(0); id < n; id++ {
			g, err := c.d.Sample(id)
			if err != nil {
				t.Fatal(err)
			}
			want := g.AppendTo(slices.Clone(prefix))

			roomy = append(roomy[:0], prefix...)
			got, err := c.d.AppendSample(roomy, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s[%d]: AppendSample into a buffer with room differs from Sample's encoding", c.name, id)
			}
			if &got[0] != &roomy[0] {
				t.Fatalf("%s[%d]: AppendSample regrew a buffer with room for the sample", c.name, id)
			}

			tight := slices.Clip(slices.Clone(prefix))
			got, err = c.d.AppendSample(tight, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(tight, prefix) {
				t.Fatalf("%s[%d]: AppendSample into a full buffer differs from Sample's encoding", c.name, id)
			}
		}
		for _, id := range []int64{-1, n} {
			if got, err := c.d.AppendSample(prefix, id); err == nil || !bytes.Equal(got, prefix) {
				t.Fatalf("%s: AppendSample(%d) = %q, %v; want the buffer back and an error", c.name, id, got, err)
			}
		}
	}
}

// TestAppendSampleConcurrent appends the same ids from several goroutines
// at once, each into its own buffer, and checks every sample against a
// sequential pass: the generators share the Ising lattice and, after
// EnableCache, the cached samples.
func TestAppendSampleConcurrent(t *testing.T) {
	const n, workers = 60, 4
	for _, c := range appendCases(n) {
		want := make([][]byte, n)
		for id := range want {
			var err error
			if want[id], err = c.d.AppendSample(nil, int64(id)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf []byte
				for id := int64(0); id < n; id++ {
					var err error
					if buf, err = c.d.AppendSample(buf[:0], id); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(buf, want[id]) {
						errs <- fmt.Errorf("%s[%d]: bytes differ from a sequential pass", c.name, id)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
