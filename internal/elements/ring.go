package elements

import (
	"sync/atomic"

	"repro/internal/packet"
)

// pktRing is the bounded FIFO behind Queue: a power-of-two slot ring
// with one pusher and one puller, both on the run loop's goroutine. The
// cursors are atomic only so that Len can be sampled by a handler on
// another goroutine while traffic runs; the slots themselves are plain.
//
// The ring holds at most `logical` packets (tail drop beyond that),
// even though the slot array is rounded up to a power of two.
type pktRing struct {
	mask    uint64
	logical uint64 // tail-drop threshold (<= len(slots))
	slots   []*packet.Packet
	head    atomic.Uint64 // next slot to consume
	tail    atomic.Uint64 // next slot to fill
}

// newPktRing returns a ring holding at most capacity packets.
func newPktRing(capacity int) *pktRing {
	if capacity < 1 {
		capacity = 1
	}
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	return &pktRing{mask: size - 1, logical: uint64(capacity), slots: make([]*packet.Packet, size)}
}

// len returns the current occupancy. A sampler on another goroutine
// reads the two cursors at different instants, so the difference is
// clamped to what the ring can hold.
func (r *pktRing) len() int {
	t, h := r.tail.Load(), r.head.Load()
	if t <= h {
		return 0
	}
	n := t - h
	if n > r.logical {
		n = r.logical
	}
	return int(n)
}

// push adds p at the tail, or reports false when the ring is at
// logical capacity (the caller tail-drops).
func (r *pktRing) push(p *packet.Packet) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= r.logical {
		return false
	}
	r.slots[tail&r.mask] = p
	r.tail.Store(tail + 1)
	return true
}

// pop removes and returns the packet at the head, or nil when the ring
// is empty.
func (r *pktRing) pop() *packet.Packet {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil
	}
	s := &r.slots[head&r.mask]
	p := *s
	*s = nil
	r.head.Store(head + 1)
	return p
}
