package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRingOrderAndWrap(t *testing.T) {
	r := New(4)
	for i := 0; i < 6; i++ {
		r.Add(Record{Kind: KindSlow, Op: fmt.Sprintf("op-%d", i)})
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("len = %d, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := fmt.Sprintf("op-%d", i+2); rec.Op != want {
			t.Errorf("record %d: op %q, want %q", i, rec.Op, want)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
	if r.Count(KindSlow) != 6 {
		t.Errorf("count(slow) = %d, want 6", r.Count(KindSlow))
	}
	if len(r.Records()) != 4 {
		t.Errorf("%d records, want 4", len(r.Records()))
	}
}

func TestAddStampsTime(t *testing.T) {
	r := New(0)
	if len(r.buf) != DefaultCapacity {
		t.Fatalf("default capacity %d, want %d", len(r.buf), DefaultCapacity)
	}
	r.Add(Record{Kind: KindError, Err: "boom"})
	if recs := r.Records(); recs[0].Time.IsZero() {
		t.Fatal("Add did not stamp a zero Time")
	}
}

func TestHandlerJSON(t *testing.T) {
	r := New(8)
	r.Add(Record{Kind: KindSlow, Op: "getbatch", Tenant: "bravo", TraceID: "00000000deadbeef", DurMs: 12.5, Bytes: 4096, Generation: 3})
	r.Add(Record{Kind: KindShed, Op: "get", Tenant: "alpha"})

	w := httptest.NewRecorder()
	r.Handler()(w, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var doc struct {
		Counts  map[Kind]int64 `json:"counts"`
		Records []Record       `json:"records"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
	if len(doc.Records) != 2 || doc.Records[0].Op != "getbatch" || doc.Records[1].Kind != KindShed {
		t.Fatalf("records = %+v", doc.Records)
	}
	if doc.Counts[KindSlow] != 1 || doc.Counts[KindShed] != 1 || doc.Counts[KindError] != 0 {
		t.Fatalf("counts = %+v", doc.Counts)
	}
}

// TestConcurrentAddWhileServing is the -race hammer required by the issue:
// writers pound the ring while readers repeatedly fetch
// /debug/flightrecorder and Records().
func TestConcurrentAddWhileServing(t *testing.T) {
	r := New(64)
	const writers, readers, per = 4, 3, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(Record{
					Kind:   kinds[i%len(kinds)],
					Op:     "getbatch",
					Tenant: fmt.Sprintf("t%d", w),
					DurMs:  float64(i),
				})
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Handler()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				h(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
				if !json.Valid(rec.Body.Bytes()) {
					t.Error("handler produced invalid JSON under concurrency")
					return
				}
				_ = r.Records()
				_ = r.Dropped()
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, k := range kinds {
		total += r.Count(k)
	}
	if total != writers*per {
		t.Fatalf("counts sum to %d, want %d", total, writers*per)
	}
	if len(r.Records()) != 64 {
		t.Fatalf("%d records, want the full ring of 64", len(r.Records()))
	}
}

func TestWriteSnapshot(t *testing.T) {
	dir := t.TempDir()
	r := New(8)
	r.Add(Record{Kind: KindStale, Op: "getbatch", Generation: 7})
	path, err := r.WriteSnapshot(dir, "test reason")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason  string   `json:"reason"`
		Records []Record `json:"records"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("bad snapshot JSON: %v", err)
	}
	if doc.Reason != "test reason" || len(doc.Records) != 1 || doc.Records[0].Generation != 7 {
		t.Fatalf("snapshot = %+v", doc)
	}
	if !strings.HasPrefix(filepath.Base(path), "flightrec-") {
		t.Fatalf("unexpected snapshot name %q", path)
	}
}

func TestWatchSnapshotsOnShedSpike(t *testing.T) {
	dir := t.TempDir()
	r := New(32)
	snaps := make(chan string, 4)
	stop := r.Watch(WatchConfig{
		Dir:        dir,
		Interval:   20 * time.Millisecond,
		ShedPerSec: 10,
		MinGap:     time.Hour, // at most one snapshot in this test
		OnSnapshot: func(path string, err error) {
			if err != nil {
				t.Errorf("snapshot error: %v", err)
				return
			}
			select {
			case snaps <- path:
			default:
			}
		},
	})
	defer stop()

	// Well above 10 sheds/sec across a 20ms window.
	for i := 0; i < 50; i++ {
		r.Add(Record{Kind: KindShed, Op: "get"})
	}
	select {
	case path := <-snaps:
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("snapshot file missing: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no snapshot written after shed spike")
	}
	stop()
	stop() // idempotent
}

func TestWatchQuietBelowThreshold(t *testing.T) {
	dir := t.TempDir()
	r := New(8)
	fired := make(chan struct{}, 1)
	stop := r.Watch(WatchConfig{
		Dir:         dir,
		Interval:    10 * time.Millisecond,
		ShedPerSec:  1e9,
		StalePerSec: 1e9,
		OnSnapshot: func(string, error) {
			select {
			case fired <- struct{}{}:
			default:
			}
		},
	})
	r.Add(Record{Kind: KindShed})
	r.Add(Record{Kind: KindStale})
	time.Sleep(60 * time.Millisecond)
	stop()
	select {
	case <-fired:
		t.Fatal("watcher snapshotted below threshold")
	default:
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("unexpected snapshot files: %v", ents)
	}
}

func TestMs(t *testing.T) {
	if got := Ms(1500 * time.Microsecond); got != 1.5 {
		t.Fatalf("Ms = %v, want 1.5", got)
	}
}
