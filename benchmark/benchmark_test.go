package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ddstore/internal/ddp"
	"ddstore/internal/obs"
)

func TestTopPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistPercentileWithinOneBucket(t *testing.T) {
	// 10 000 latencies from 1 µs to 10 ms: every percentile read from the
	// histogram is within a 128th of the exact one.
	var h hist
	for i := 1; i <= 10000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := p / 100 * 10000 // µs: the sample of rank p/100 · n
		if got := h.percentileUs(p); math.Abs(got-want)/want > 1.0/128 {
			t.Errorf("p%v = %v µs, want %v within 0.8%%", p, got, want)
		}
	}
	var sum hist
	sum.add(&h)
	sum.add(&h)
	if sum.n != 20000 || sum.percentileUs(50) != h.percentileUs(50) {
		t.Errorf("adding a histogram to itself moved its median: n %d, p50 %v", sum.n, sum.percentileUs(50))
	}
	// Below a bucket's width and beyond the cap nothing is lost or wrapped.
	var edge hist
	edge.record(0)
	edge.record(100 * time.Second)
	if edge.percentileUs(1) != 0 || edge.percentileUs(100) < 8e6 {
		t.Errorf("edges: p1 %v, p100 %v µs", edge.percentileUs(1), edge.percentileUs(100))
	}
}

func TestBestReadsTheUndisturbedSlice(t *testing.T) {
	// Twenty slices, all but two slowed by a neighbour: the reading is the
	// undisturbed value, whichever way is better.
	lat := make([]float64, 20)
	rate := make([]float64, 20)
	for i := range lat {
		lat[i] = 150 + 20*float64(i)
		if i == 7 || i == 13 {
			lat[i] = 100
		}
		rate[i] = 1000 * 100 / lat[i]
	}
	if got := best(lat, "lower"); got != 100 {
		t.Errorf("best latency %v, want 100", got)
	}
	if got := best(rate, "higher"); got != 1000 {
		t.Errorf("best rate %v, want 1000", got)
	}
	// A change that slows every slice by a tenth moves the reading by a tenth.
	for i := range lat {
		lat[i] *= 1.1
	}
	if got := best(lat, "lower"); math.Abs(got-110) > 1e-9 {
		t.Errorf("best latency after a 10%% slowdown %v, want 110", got)
	}
	if got := best(nil, "lower"); got != 0 {
		t.Errorf("best of no slices %v, want 0", got)
	}
}

func TestPhaseSlicesAddUp(t *testing.T) {
	cl := &clients{workers: []worker{&sleepyWorker{}, &sleepyWorker{}}}
	p := runPhase(cl, &oracle{}, 0, 4*sliceLen, false, false)
	if len(p.slices) != 4 {
		t.Fatalf("%d slices for a phase of four, want 4", len(p.slices))
	}
	var inSlices int64
	for _, sl := range p.slices {
		if sl.samples == 0 || int64(sl.lat.n) != sl.samples || sl.cpu <= 0 {
			t.Errorf("slice with %d samples, %d latencies, %v of CPU", sl.samples, sl.lat.n, sl.cpu)
		}
		inSlices += sl.samples
	}
	// Every request was sent inside the phase, so inside one of its slices.
	if p.samples != inSlices || p.requests() != p.samples {
		t.Errorf("%d samples and %d requests in total, %d in the slices", p.samples, p.requests(), inSlices)
	}
}

// sleepyWorker stalls once; every other request returns at once.
type sleepyWorker struct {
	calls int
	stall time.Duration
}

func (w *sleepyWorker) next() []int64 { return nil }

func (w *sleepyWorker) load([]int64, *checker, *reqTrace) (int, error) {
	w.calls++
	if w.calls == 1 {
		time.Sleep(w.stall)
	}
	return 1, nil
}

func TestFloodKeepsItsScheduleAndCountsLateness(t *testing.T) {
	flood := &sleepyWorker{stall: 10 * time.Millisecond}
	cl := &clients{flood: flood}
	p := runPhase(cl, &oracle{}, 1000, 50*time.Millisecond, false, false)
	// The schedule is fixed: a stall delays sends, it does not drop them.
	if p.floodAttempts != 50 || len(p.floodLags) != 50 {
		t.Fatalf("%d sends, %d lags; want 50 of each", p.floodAttempts, len(p.floodLags))
	}
	// The sends due 1..8 ms in waited for the 10 ms stall, timed from their
	// due times; the ones after the catch-up were on time again.
	if p.floodLags[1] < 8*time.Millisecond {
		t.Errorf("second send left %v after its due time; the stall before it is missing", p.floodLags[1])
	}
	if late := lateFrac(p.floodLags); late < 8.0/50 || late > 0.5 {
		t.Errorf("late fraction %v, want at least 8 of 50 and not all", late)
	}
}

func TestLateFrac(t *testing.T) {
	lags := []time.Duration{0, lateAfter, lateAfter + 1, 5 * lateAfter}
	if got := lateFrac(lags); got != 0.5 {
		t.Errorf("lateFrac = %v, want 0.5", got)
	}
}

func TestIDStreamsRepeatForEqualSeeds(t *testing.T) {
	const n = 5000
	stream := func(w worker) [][]int64 {
		var out [][]int64
		for i := 0; i < 200; i++ {
			out = append(out, append([]int64(nil), w.next()...))
		}
		return out
	}
	makers := map[string]func(seed uint64) worker{
		"sampler": func(seed uint64) worker {
			bw, err := newBatchWorker(nil, nil, n, seed, 1, 64)
			if err != nil {
				t.Fatal(err)
			}
			return bw
		},
		"zipf": func(seed uint64) worker {
			return &zipfWorker{
				zipf: rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.1, 1, n-1),
				perm: ddp.NewPermutation(n, seed),
			}
		},
		"uniform": func(seed uint64) worker {
			return &getWorker{rng: rand.New(rand.NewSource(int64(seed))), n: n}
		},
	}
	for name, mk := range makers {
		a, b, c := stream(mk(7)), stream(mk(7)), stream(mk(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
		for _, ids := range a {
			for _, id := range ids {
				if id < 0 || id >= n {
					t.Fatalf("%s: id %d outside [0,%d)", name, id, n)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   interval
		children []interval
		want     int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"disjoint", interval{0, 100}, []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping count once", interval{0, 100}, []interval{{10, 60}, {40, 80}}, 30},
		{"nested", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to parent", interval{50, 100}, []interval{{0, 60}, {90, 200}}, 30},
		{"outside parent", interval{50, 100}, []interval{{0, 10}}, 50},
	} {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSplitAddsUpToTheLoad(t *testing.T) {
	// One load of 100 µs with two owner fetches in parallel, [10,60] and
	// [20,90] µs; the second carries a server request of 30 µs of which
	// 5 µs queued.
	us := time.Microsecond
	rs := &reqSpans{
		rt: &reqTrace{loadStart: 0, loadEnd: 100 * us},
		spans: []obs.Span{
			{Name: "fetch-owner", SpanID: 1, Start: 10 * us, Dur: 50 * us},
			{Name: "fetch-owner", SpanID: 2, Start: 20 * us, Dur: 70 * us},
			{Name: "server-request", SpanID: 3, ParentID: 2, Start: 40 * us, Dur: 30 * us},
			{Name: "server-queue-wait", SpanID: 4, ParentID: 3, Start: 40 * us, Dur: 5 * us},
		},
	}
	lt := &layerTimes{}
	rs.split(lt)
	if got := lt.fetchSelf[0]; got != 20 {
		t.Errorf("fetch self time %v µs, want 20 (100 minus the union [10,90])", got)
	}
	if got := lt.rtt[0]; got != 40 {
		t.Errorf("rtt %v µs, want 40 (70 µs owner fetch minus 30 µs on the server)", got)
	}
	if got := lt.queueWait[0]; got != 5 {
		t.Errorf("queue wait %v µs, want 5", got)
	}
	if got := lt.service[0]; got != 25 {
		t.Errorf("service %v µs, want 25 (queue wait excluded)", got)
	}
	if got := lt.straggler[0]; got != 70.0/60 {
		t.Errorf("straggler ratio %v, want slowest 70 over mean 60", got)
	}
	// Self time plus the critical-path shares is the whole load.
	sum := lt.fetchSelf[0] + lt.cpRTT[0] + lt.cpQueue[0] + lt.cpService[0]
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("layer times add up to %v µs, want the load's 100", sum)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "samples_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		name       string
		d          metricDef
		olds, news []float64
		want       verdict
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 102, 98}, ok},
		{"latency up within bound", lower, []float64{100}, []float64{109}, ok},
		{"latency up past bound", lower, []float64{100}, []float64{111}, worse},
		{"latency down", lower, []float64{100}, []float64{50}, ok},
		{"throughput down past bound", higher, []float64{1000}, []float64{880}, worse},
		{"throughput up", higher, []float64{1000}, []float64{2000}, ok},
		{"spread wider than bound", lower, []float64{80, 100, 120, 140}, []float64{100, 100, 100, 100}, unresolved},
		{"worse beats unresolved", lower, []float64{80, 100, 120, 140}, []float64{200, 200, 200, 200}, worse},
		{"one side missing", lower, nil, []float64{100}, unresolved},
	} {
		if _, _, _, got := judge(c.d, c.olds, c.news); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReportsWorseRows(t *testing.T) {
	mk := func(p50 float64) []result {
		return []result{{Workload: "train_shuffle", Attempted: 10, Metrics: map[string]metric{"p50_us": {Value: p50, Unit: "us"}}}}
	}
	var buf bytes.Buffer
	if compare(&buf, mk(100), mk(105)) {
		t.Errorf("5%% slower p50 reported as worse:\n%s", buf.String())
	}
	buf.Reset()
	if !compare(&buf, mk(100), mk(150)) || !strings.Contains(buf.String(), "worse") {
		t.Errorf("50%% slower p50 not reported as worse:\n%s", buf.String())
	}
}

func TestCheckerFindsWrongBytes(t *testing.T) {
	o, err := buildOracle("homolumo", 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDataset("homolumo", 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := d.Sample(3)
	if err != nil {
		t.Fatal(err)
	}
	good := g.Encode()
	full := &checker{o: o, full: true}
	if !full.raw(3, good) || o.mismatches.Load() != 0 {
		t.Fatal("the dataset's own bytes failed the oracle")
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	if full.raw(3, bad) {
		t.Error("a flipped bit passed the full check")
	}
	if full.raw(4, good) {
		t.Error("sample 3's bytes passed as sample 4")
	}
	// Inside the window the length is always checked, the bytes one time
	// in crcEvery.
	window := &checker{o: o}
	if window.raw(3, good[:len(good)-1]) {
		t.Error("a short sample passed the window check")
	}
	caught := 0
	for i := 0; i < 2*crcEvery; i++ {
		if !window.raw(3, bad) {
			caught++
		}
	}
	if caught != 2 {
		t.Errorf("window check caught the flipped bit %d times in %d, want 2", caught, 2*crcEvery)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the driver
// reads, in step with the workloads and metrics the program reports.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var gated []*workload
	for _, wl := range workloads {
		if wl.gated {
			gated = append(gated, wl)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(spec.Workloads), len(gated))
	}
	for i, wl := range gated {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, wl.name)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, over the 200 allowed", wl.name, len(wl.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}
