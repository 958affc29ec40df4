package comm

import (
	"sync"
	"time"
)

// message is one in-flight point-to-point message.
type message struct {
	from     int // world rank of sender
	tag      int
	data     []byte
	sentAt   time.Duration // sender's virtual clock at send time
	sameNode bool
}

// mailbox is one rank's inbox: an unbounded matched queue protected by a
// condition variable, so Recv can wait for a (source, tag) match that has
// not arrived yet.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	broken  bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.pending = append(b.pending, m)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// take removes and returns the first message matching (from, tag). A
// negative from or tag acts as a wildcard (MPI_ANY_SOURCE / MPI_ANY_TAG).
func (b *mailbox) take(from, tag int) (message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.broken {
			return message{}, ErrWorldBroken
		}
		for i, m := range b.pending {
			if (from < 0 || m.from == from) && (tag < 0 || m.tag == tag) {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				return m, nil
			}
		}
		b.cond.Wait()
	}
}

func (b *mailbox) breakBox() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// AnySource matches any sender in Recv.
const AnySource = -1

// AnyTag matches any tag in Recv.
const AnyTag = -1

// Send delivers data to the given communicator rank with a tag. The data is
// copied, so the caller may reuse the buffer immediately (MPI_Send buffered
// semantics). The sender is charged a small injection overhead; the transfer
// time is charged to the receiver on matching.
func (c *Comm) Send(to int, tag int, data []byte) error {
	world := c.group[to]
	cp := make([]byte, len(data))
	copy(cp, data)
	var sentAt time.Duration
	sameNode := true
	if m := c.world.machine; m != nil {
		c.Clock().Advance(m.IntraNodeLatency) // injection overhead
		sentAt = c.Clock().Now()
		sameNode = m.SameNode(c.rank, world)
	}
	c.world.boxes[world].put(message{
		from:     c.rank,
		tag:      tag,
		data:     cp,
		sentAt:   sentAt,
		sameNode: sameNode,
	})
	return nil
}

// Recv blocks until a message from the given communicator rank (or
// AnySource) with the given tag (or AnyTag) arrives, and returns its payload
// and the sender's communicator rank. The receiver's clock advances to the
// modeled arrival time of the message.
func (c *Comm) Recv(from int, tag int) ([]byte, int, error) {
	worldFrom := AnySource
	if from >= 0 {
		worldFrom = c.group[from]
	}
	msg, err := c.world.boxes[c.rank].take(worldFrom, tag)
	if err != nil {
		return nil, 0, err
	}
	if m := c.world.machine; m != nil {
		arrive := msg.sentAt + m.NetTransfer(int64(len(msg.data)), msg.sameNode)
		c.Clock().AdvanceTo(arrive)
	}
	// Translate the sender's world rank back to a communicator rank.
	senderIdx := -1
	for i, r := range c.group {
		if r == msg.from {
			senderIdx = i
			break
		}
	}
	return msg.data, senderIdx, nil
}
