package main

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"ddstore/internal/cache"
	"ddstore/internal/obs"
	"ddstore/internal/transport"
)

// worker is one of a workload's load-generating clients. A request is
// next followed by load; the sweep after the window calls load with ids of
// its own, so it exercises the same read path.
type worker interface {
	// next returns the sample ids of the worker's next request. The stream
	// depends only on the workload seed and the worker's index; the slice
	// is valid until the following call.
	next() []int64
	// load fetches ids through the workload's read path, checks every
	// sample with chk and returns how many samples it delivered. With rt
	// non-nil the request is traced and load fills rt in.
	load(ids []int64, chk *checker, rt *reqTrace) (int, error)
}

// clients is one dialled set of workers. flood, when set, is an unmeasured
// open-loop client most of whose requests are meant to be refused (the
// hostile tenant); only hard errors and wrong bytes count against it.
type clients struct {
	workers []worker
	flood   worker
	close   func()
	// cacheStats reads the client-side sample cache, when there is one.
	cacheStats func() cache.Stats
}

// reqTrace is the benchmark's own record of one traced request: the spans
// around its calls into the layers, on the obs.EpochNow clock the program's
// spans use, plus what links the program's spans to it.
type reqTrace struct {
	sent, end time.Duration
	// load brackets the call into the data plane (PlaneLoader, Group,
	// Store or Client); materialise runs from loadEnd to matEnd.
	loadStart, loadEnd, matEnd time.Duration
	// traceID is set when the benchmark minted the trace context itself.
	traceID uint64
	// timing is the server's trailer when the call returned it directly.
	timing  *transport.ServerTiming
	samples int
	uniq    int
}

// phase is one stretch of load: every measured worker in a closed loop (its
// next request when the previous returns), the flood client, if any, on a
// fixed schedule.
type phase struct {
	// dur is the planned length, elapsed the time until the last request
	// had returned; rates are over elapsed.
	dur, elapsed time.Duration
	// slices holds the requests sent in each whole sliceLen of dur, all the
	// latencies of the whole phase.
	slices  []sliceData
	all     hist
	samples int64
	// firstErr is the error of the first request that failed.
	firstErr error
	// payload is the encoded size of the samples the workers and the flood
	// client received.
	payload int64
	failed  int64
	traces  [][]reqTrace
	// The flood client: requests sent, refused with the overloaded status,
	// samples delivered, and how long after its due time each send left.
	floodAttempts, floodRefused, floodSamples int64
	floodLags                                 []time.Duration
}

// sliceData is one slice of a phase: the latencies of the requests sent in
// it, the samples they delivered, and the CPU time the process used
// meanwhile.
type sliceData struct {
	lat     hist
	samples int64
	cpu     time.Duration
}

func (p *phase) requests() int64 { return int64(p.all.n) }

// lateAfter is how long after its due time a flood send counts as late.
const lateAfter = time.Millisecond

// sleepUntil blocks until the wall clock reaches t. With one processor
// that the workers keep busy, the runtime looks at its timers every time a
// goroutine yields, a few microseconds apart, which is as exact as the
// flood's 100 µs schedule needs; it costs no CPU, which a spin would charge
// to cpu_ms_per_ksample.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// sliceBook collects what the workers of a phase complete, slice by slice.
// A worker keeps the slice it is in to itself and hands it over when it
// moves on, so the lock is taken a few times a second.
type sliceBook struct {
	mu     sync.Mutex
	slices []sliceData
	// marks[i] is the process's CPU time when the first worker reached
	// slice i; -1 until then.
	marks []time.Duration
}

func newSliceBook(n int) *sliceBook {
	b := &sliceBook{slices: make([]sliceData, n), marks: make([]time.Duration, n+1)}
	for i := range b.marks {
		b.marks[i] = -1
	}
	return b
}

// reach records that a worker is now in slice i, having been in slice from,
// whose share it hands over.
func (b *sliceBook) reach(from, i int, lat *hist, samples int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from >= 0 && from < len(b.slices) {
		b.slices[from].lat.add(lat)
		b.slices[from].samples += samples
	}
	now := cpuTime()
	for k := from + 1; k <= i && k < len(b.marks); k++ {
		if b.marks[k] < 0 {
			b.marks[k] = now
		}
	}
}

// done returns the slices with the CPU time of each filled in.
func (b *sliceBook) done() []sliceData {
	for i := range b.slices {
		if b.marks[i] >= 0 && b.marks[i+1] >= 0 {
			b.slices[i].cpu = b.marks[i+1] - b.marks[i]
		}
	}
	return b.slices
}

// runPhase drives cl's workers, and its flood client at floodPerSec
// requests a second, for dur; full selects byte-for-byte checking of every
// sample.
func runPhase(cl *clients, o *oracle, floodPerSec float64, dur time.Duration, full, traced bool) *phase {
	nw := len(cl.workers)
	p := &phase{dur: dur, traces: make([][]reqTrace, nw)}
	type out struct {
		all             hist
		samples, failed int64
		payload         int64
		firstErr        error
	}
	outs := make([]out, nw)
	book := newSliceBook(int(dur / sliceLen))
	start := time.Now().Add(2 * time.Millisecond)
	epoch0 := obs.EpochNow() + time.Until(start)
	deadline := start.Add(dur)

	var wg sync.WaitGroup
	for w := range cl.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := cl.workers[w]
			chk := &checker{o: o, full: full}
			res := &outs[w]
			// The slice the worker is in, and what it has completed there.
			in := -1
			var lat hist
			var samples int64
			sleepUntil(start)
			for {
				sent := time.Now()
				if i := int(sent.Sub(start) / sliceLen); i != in {
					book.reach(in, i, &lat, samples)
					in, lat, samples = i, hist{}, 0
				}
				if !sent.Before(deadline) {
					break
				}
				var rt *reqTrace
				if traced {
					p.traces[w] = append(p.traces[w], reqTrace{})
					rt = &p.traces[w][len(p.traces[w])-1]
				}
				n, err := wk.load(wk.next(), chk, rt)
				end := time.Now()
				if rt != nil {
					rt.sent = epoch0 + sent.Sub(start)
					rt.end = epoch0 + end.Sub(start)
					rt.samples = n
				}
				// A request belongs to the slice it was sent in; one that
				// straddles a boundary is a few hundredths of a slice.
				lat.record(end.Sub(sent))
				samples += int64(n)
				res.all.record(end.Sub(sent))
				res.samples += int64(n)
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
				// With one processor a worker that never blocks (the RMA
				// plane has no sockets) would otherwise keep it for a whole
				// 10 ms time slice, and the other worker's latency would be
				// the scheduler's quantum.
				runtime.Gosched()
			}
			res.payload = chk.bytes
		}(w)
	}
	if cl.flood != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := &checker{o: o, full: full}
			interval := time.Duration(float64(time.Second) / floodPerSec)
			// The schedule is fixed: a send that leaves late does not push
			// the ones after it back.
			for i := int64(0); ; i++ {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(deadline) {
					break
				}
				sleepUntil(due)
				p.floodLags = append(p.floodLags, time.Since(due))
				n, err := cl.flood.load(cl.flood.next(), chk, nil)
				p.floodAttempts++
				p.floodSamples += int64(n)
				switch {
				case err == nil:
				case errors.Is(err, transport.ErrOverloaded):
					p.floodRefused++
				default:
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				}
			}
			p.payload += chk.bytes
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.slices = book.done()
	for w := range outs {
		o := &outs[w]
		p.all.add(&o.all)
		p.samples += o.samples
		p.payload += o.payload
		p.failed += o.failed
		if p.firstErr == nil {
			p.firstErr = o.firstErr
		}
	}
	return p
}
