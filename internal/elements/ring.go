package elements

import (
	"sync/atomic"

	"repro/internal/packet"
)

// pktRing is the bounded FIFO behind Queue: a power-of-two slot ring
// with one pusher and one puller, both on the run loop's goroutine. The
// cursors are atomic only so that Len can be sampled by a handler on
// another goroutine while traffic runs; the slots themselves are plain.
// Both ends move a burst at a time, so a burst pays for one cursor store.
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

// push appends ps at the tail until the ring holds logical packets and
// returns how many it took; the caller tail-drops the rest. The tail is
// published once per burst.
func (r *pktRing) push(ps []*packet.Packet) int {
	tail := r.tail.Load()
	n := min(uint64(len(ps)), r.logical-(tail-r.head.Load()))
	for i, p := range ps[:n] {
		r.slots[(tail+uint64(i))&r.mask] = p
	}
	r.tail.Store(tail + n)
	return int(n)
}

// pop moves up to len(buf) packets from the head into buf and returns
// how many. The head is published once per burst.
func (r *pktRing) pop(buf []*packet.Packet) int {
	head := r.head.Load()
	n := min(uint64(len(buf)), r.tail.Load()-head)
	for i := range buf[:n] {
		s := &r.slots[(head+uint64(i))&r.mask]
		buf[i], *s = *s, nil
	}
	r.head.Store(head + n)
	return int(n)
}
