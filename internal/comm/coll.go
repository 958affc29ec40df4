package comm

import (
	"fmt"
	"time"
)

// ReduceOp is a reduction operator for Allreduce.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// exchange runs one two-phase collective: every rank deposits v into its
// slot, all ranks synchronize (charging cost to the virtual clocks exactly
// once), read reads the slot array, and a second synchronization prevents
// slot reuse before every rank has read. cost is evaluated by the last
// arriving rank so straggler clocks are already final.
func (c *Comm) exchange(v any, cost func() time.Duration, read func(slots []any)) error {
	st := c.state
	st.slots[c.idx] = v
	err := st.barrier.await(func() {
		if c.world.machine == nil {
			return
		}
		extra := cost()
		var max time.Duration
		for _, cl := range c.groupClocks() {
			if t := cl.Now(); t > max {
				max = t
			}
		}
		st.syncTo = max + extra
	})
	if err != nil {
		return err
	}
	if c.world.machine != nil {
		c.Clock().AdvanceTo(st.syncTo)
	}
	if read != nil {
		read(st.slots)
	}
	return st.barrier.await(nil)
}

func (c *Comm) allgatherAny(v any, recv func(i int, v any)) error {
	return c.exchange(v, c.smallCollCost, func(slots []any) {
		for i, s := range slots {
			recv(i, s)
		}
	})
}

func (c *Comm) smallCollCost() time.Duration {
	return c.world.machine.CollectiveLatency(c.Size())
}

// Barrier blocks until every rank of the communicator arrives.
func (c *Comm) Barrier() error {
	return c.exchange(nil, c.smallCollCost, nil)
}

// Allreduce combines in element-wise across all ranks with op and returns
// the result (same on every rank). All ranks must pass equal-length slices.
func (c *Comm) Allreduce(in []float64, op ReduceOp) ([]float64, error) {
	var out []float64
	err := c.exchange(in, func() time.Duration {
		return c.world.machine.Allreduce(int64(len(in)*8), c.Size())
	}, func(slots []any) {
		out = make([]float64, len(in))
		first := true
		for _, s := range slots {
			vec := s.([]float64)
			if len(vec) != len(in) {
				panic(fmt.Sprintf("comm: Allreduce length mismatch: %d vs %d", len(vec), len(in)))
			}
			if first {
				copy(out, vec)
				first = false
				continue
			}
			for i, v := range vec {
				switch op {
				case OpSum:
					out[i] += v
				case OpMax:
					if v > out[i] {
						out[i] = v
					}
				case OpMin:
					if v < out[i] {
						out[i] = v
					}
				}
			}
		}
	})
	return out, err
}

// AllreduceFloat32 combines float32 vectors (the gradient path) in place:
// after the call, in holds the reduced values on every rank.
func (c *Comm) AllreduceFloat32(in []float32, op ReduceOp) error {
	// Each rank deposits its own slice; every rank then reduces all slices
	// into a private buffer and copies back, so no rank's input is read
	// after it has been overwritten. The copy-back happens before the
	// second barrier, which is exactly the hazard the two-phase design
	// guards against — so reduce into a temporary first.
	var tmp []float32
	err := c.exchange(in, func() time.Duration {
		return c.world.machine.Allreduce(int64(len(in)*4), c.Size())
	}, func(slots []any) {
		tmp = make([]float32, len(in))
		first := true
		for _, s := range slots {
			vec := s.([]float32)
			if len(vec) != len(in) {
				panic(fmt.Sprintf("comm: AllreduceFloat32 length mismatch: %d vs %d", len(vec), len(in)))
			}
			if first {
				copy(tmp, vec)
				first = false
				continue
			}
			for i, v := range vec {
				switch op {
				case OpSum:
					tmp[i] += v
				case OpMax:
					if v > tmp[i] {
						tmp[i] = v
					}
				case OpMin:
					if v < tmp[i] {
						tmp[i] = v
					}
				}
			}
		}
	})
	if err != nil {
		return err
	}
	copy(in, tmp)
	// A trailing barrier so no rank starts the next collective while another
	// is still copying tmp — copy happens after the exchange completed, and
	// tmp is private, so this is only needed to keep clock alignment tight.
	return nil
}

// Allgather concatenates the contributions of all ranks in rank order.
// They may differ in length (MPI_Allgatherv): the in-process transport
// needs no count exchange. It is charged from the deposited contributions,
// never from the caller's own, so the charge does not depend on which rank
// arrives last: the busiest receiver, the rank with the smallest
// contribution, takes in every byte but its own.
func (c *Comm) Allgather(mine []byte) ([][]byte, error) {
	var out [][]byte
	err := c.exchange(mine, func() time.Duration {
		m := c.world.machine
		var sum, least int64
		for i, s := range c.state.slots {
			n := int64(len(s.([]byte)))
			sum += n
			if i == 0 || n < least {
				least = n
			}
		}
		return m.CollectiveLatency(c.Size()) + m.NetTransfer(sum-least, c.Size() <= m.GPUsPerNode)
	}, func(slots []any) {
		out = make([][]byte, len(slots))
		for i, s := range slots {
			src := s.([]byte)
			cp := make([]byte, len(src))
			copy(cp, src)
			out[i] = cp
		}
	})
	return out, err
}

// Alltoallv sends parts[j] to communicator rank j and returns, indexed by
// sender, what every rank sent to this one (MPI_Alltoallv). Parts may
// differ in length and may be empty; every rank must pass one per rank.
// The result is this rank's own copy, so senders may reuse their parts.
// On a single rank it is a copy and charges nothing.
func (c *Comm) Alltoallv(parts [][]byte) ([][]byte, error) {
	if len(parts) != c.Size() {
		return nil, fmt.Errorf("comm: Alltoallv got %d parts for %d ranks", len(parts), c.Size())
	}
	if c.Size() == 1 {
		return [][]byte{append([]byte(nil), parts[0]...)}, nil
	}
	var out [][]byte
	err := c.exchange(parts, c.alltoallvCost, func(slots []any) {
		total := 0
		for _, s := range slots {
			total += len(s.([][]byte)[c.idx])
		}
		buf := make([]byte, total)
		out = make([][]byte, len(slots))
		for i, s := range slots {
			n := copy(buf, s.([][]byte)[c.idx])
			out[i], buf = buf[:n:n], buf[n:]
		}
	})
	return out, err
}

// alltoallvCost is the modeled time of one Alltoallv over the deposited
// parts: the count exchange that sizes it, then the busiest receiver's
// messages from its peers, each charged the point-to-point transfer time
// of its bytes. Empty parts cost nothing; a rank's part to itself stays in
// its memory.
func (c *Comm) alltoallvCost() time.Duration {
	m, slots := c.world.machine, c.state.slots
	var busiest time.Duration
	for to := range slots {
		var in time.Duration
		for from, s := range slots {
			if n := len(s.([][]byte)[to]); n > 0 && from != to {
				in += m.NetTransfer(int64(n), m.SameNode(c.group[from], c.group[to]))
			}
		}
		busiest = max(busiest, in)
	}
	return m.CollectiveLatency(len(slots)) + busiest
}
