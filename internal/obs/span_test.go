package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanRingRecordAndContext(t *testing.T) {
	r := NewSpanRing(8, 3)
	r.SetContext(2, 17)
	r.Record(Span{Name: "load-batch", Cat: "train", Owner: -1, Samples: 4, Start: time.Second, Dur: time.Millisecond})
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("len = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Rank != 3 || s.Epoch != 2 || s.Step != 17 {
		t.Fatalf("context not stamped: %+v", s)
	}
	if r.rank != 3 || r.Len() != 1 || r.Dropped() != 0 {
		t.Fatalf("ring state: rank=%d len=%d dropped=%d", r.rank, r.Len(), r.Dropped())
	}
}

func TestSpanRingWrapsAndCountsDrops(t *testing.T) {
	r := NewSpanRing(4, 0)
	for i := 0; i < 10; i++ {
		r.Record(Span{Name: "s", Start: time.Duration(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	spans := r.Spans()
	for i, s := range spans {
		if want := time.Duration(6 + i); s.Start != want {
			t.Fatalf("span[%d].Start = %v, want %v (oldest-first retention window)", i, s.Start, want)
		}
	}
}

func TestSpanRingRecordAll(t *testing.T) {
	r := NewSpanRing(4, 2)
	r.SetContext(1, 9)
	r.RecordAll(
		Span{Name: "a", Start: 0},
		Span{Name: "b", Start: 1},
		Span{Name: "c", Start: 2},
	)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("len = %d, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Start != time.Duration(i) {
			t.Fatalf("span[%d].Start = %v: batch order not preserved", i, s.Start)
		}
		if s.Rank != 2 || s.Epoch != 1 || s.Step != 9 {
			t.Fatalf("context not stamped on batched span: %+v", s)
		}
	}
	// Overflow inside one batch drops oldest, same as Record.
	r.RecordAll(Span{Name: "d", Start: 3}, Span{Name: "e", Start: 4})
	if r.Len() != 4 || r.Dropped() != 1 {
		t.Fatalf("after overflow batch: len=%d dropped=%d, want 4/1", r.Len(), r.Dropped())
	}
	if got := r.Spans()[0].Start; got != 1 {
		t.Fatalf("oldest retained = %v, want 1", got)
	}
}

func TestSpanRingDefaultCap(t *testing.T) {
	r := NewSpanRing(0, 0)
	if len(r.buf) != DefaultSpanCap {
		t.Fatalf("default cap = %d, want %d", len(r.buf), DefaultSpanCap)
	}
}

func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64, 1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.SetContext(i/10, i)
				r.Record(Span{Name: "x", Dur: time.Microsecond})
				r.Spans()
			}
		}()
	}
	wg.Wait()
	if got := int64(r.Len()) + r.Dropped(); got != 800 {
		t.Fatalf("retained+dropped = %d, want 800", got)
	}
}

// chromeTrace mirrors the JSON shape Chrome's trace viewer loads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewSpanRing(16, 2)
	r.SetContext(1, 5)
	r.Record(Span{Name: "load-batch", Cat: "train", Owner: -1, Samples: 8,
		Start: 3 * time.Millisecond, Dur: 2 * time.Millisecond})
	r.Record(Span{Name: "fetch-owner", Cat: "fetch", Owner: 7, Samples: 3, Bytes: 4096,
		CacheHit: false, Start: 3100 * time.Microsecond, Dur: 900 * time.Microsecond})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, nil); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Pid != 2 {
				t.Fatalf("pid = %d, want rank 2", ev.Pid)
			}
			if ev.Name == "fetch-owner" {
				if ev.Args["owner"] != float64(7) || ev.Args["bytes"] != float64(4096) {
					t.Fatalf("fetch-owner args: %v", ev.Args)
				}
				if ev.Ts != 3100 || ev.Dur != 900 {
					t.Fatalf("ts/dur in µs: ts=%v dur=%v", ev.Ts, ev.Dur)
				}
			}
			if ev.Name == "load-batch" {
				if _, ok := ev.Args["owner"]; ok {
					t.Fatal("owner -1 must be omitted from args")
				}
				if ev.Args["epoch"] != float64(1) || ev.Args["step"] != float64(5) {
					t.Fatalf("load-batch args: %v", ev.Args)
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// process_name + two thread_name metadata events, two complete events.
	if meta != 3 || complete != 2 {
		t.Fatalf("meta=%d complete=%d, want 3/2", meta, complete)
	}
}

func TestTraceSinkDistinctPids(t *testing.T) {
	sink := NewTraceSink(8)
	var rings []*SpanRing
	for run := 0; run < 2; run++ {
		for rank := 0; rank < 2; rank++ {
			r := sink.NewRing(fmt.Sprintf("run%d", run), rank)
			r.Record(Span{Name: "s", Cat: "train", Dur: time.Microsecond})
			rings = append(rings, r)
		}
	}
	pids := map[int]bool{}
	for _, r := range rings {
		if pids[r.pid] {
			t.Fatalf("duplicate pid %d", r.pid)
		}
		pids[r.pid] = true
	}
	var buf bytes.Buffer
	if err := sink.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("sink trace invalid: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "process_name" {
			names[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	for _, want := range []string{"run0 rank 0", "run0 rank 1", "run1 rank 0", "run1 rank 1"} {
		if !names[want] {
			t.Fatalf("missing process %q (have %v)", want, names)
		}
	}
}
