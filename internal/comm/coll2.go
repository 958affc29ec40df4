package comm

import "time"

// Request is a handle on a non-blocking RMA operation. The in-process
// transport completes data movement eagerly; Wait charges the modeled
// completion time, which lets callers overlap several Gets and pay max
// rather than sum of latencies — the batching pattern MPI_Rget enables.
type Request struct {
	win      *Win
	complete time.Duration // modeled completion time
	done     bool
}

// Wait blocks until the operation completes, advancing the caller's clock
// to the modeled completion time.
func (r *Request) Wait() {
	if r.done {
		return
	}
	r.done = true
	if r.win.comm.Machine() != nil {
		r.win.comm.Clock().AdvanceTo(r.complete)
	}
}

// GetNB starts a non-blocking Get (MPI_Rget). The data lands in dst
// immediately (in-process transport); the modeled completion time is paid
// at Wait. Multiple outstanding GetNBs to one or more targets overlap their
// transfers: issuing k gets and waiting costs max, not sum, of their
// modeled times (plus per-op issue overhead).
func (w *Win) GetNB(dst []byte, target int, offset int) (*Request, error) {
	if err := w.checkAccess(target, offset, len(dst)); err != nil {
		return nil, err
	}
	copy(dst, w.regions[target][offset:offset+len(dst)])
	req := &Request{win: w}
	if m := w.comm.Machine(); m != nil {
		// Issue overhead is serial on the caller; the wire time overlaps.
		issue := m.RMAOverhead / 4
		w.comm.Clock().Advance(issue)
		wire := time.Duration(float64(m.RMATransfer(int64(len(dst)), w.comm.SameNode(target))) *
			m.JitterFactor(w.comm.RNG()))
		req.complete = w.comm.Clock().Now() + wire
	}
	return req, nil
}

// WaitAll completes a set of requests.
func WaitAll(reqs []*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}
