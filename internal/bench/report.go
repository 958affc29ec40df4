// Package bench is the experiment harness: one function per table and
// figure of the paper's evaluation section, each returning a Report with
// the same rows/series the paper shows. The cmd/ddstore-bench tool runs
// them by id; bench_test.go wraps each in a testing.B benchmark.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ddstore/internal/obs"
)

// Report is the textual result of one experiment.
type Report struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Notes carry the paper's expected shape next to what we measured.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a row, formatting each cell with %v.
func (r *Report) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	r.Rows = append(r.Rows, row)
}

// AddNote appends a formatted note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the report as an indented JSON object.
func (r *Report) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// CSV renders the report as comma-separated values, each cell quoted as
// RFC 4180 requires (fig7 has a column with a comma in its name).
func (r *Report) CSV() string {
	var b strings.Builder
	csv.NewWriter(&b).WriteAll(append([][]string{r.Columns}, r.Rows...))
	return b.String()
}

// Options configures experiment scale.
type Options struct {
	// Quick shrinks every experiment to seconds for tests; the full-size
	// runs reproduce the paper's configurations.
	Quick bool
	// Seed makes runs reproducible.
	Seed uint64
	// CacheBytes, if positive, gives every DDStore rank in the simulated
	// runs a byte-budgeted remote-sample cache of this size (see
	// core.Options.CacheBytes). Zero keeps the paper-faithful cacheless
	// configuration.
	CacheBytes int64
	// Metrics, when non-nil, receives every run's engine metrics (latency
	// histogram, cache and resilience event counters) — the -metrics-json
	// sink of cmd/ddstore-bench. Does not perturb run results.
	Metrics *obs.Registry
	// Trace, when non-nil, collects per-batch spans from every rank of
	// every (non-memoized) run for Chrome trace export (-trace-out).
	Trace *obs.TraceSink
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 20231112 // the SC-W '23 conference start date
	}
	return o.Seed
}

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

var registry []Experiment

func register(id, title string, run func(Options) (*Report, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns all registered experiments in id order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
