package packet

import (
	"sync"
	"sync/atomic"
)

// Recycling, as Click recycles sk_buffs: a router at full rate never
// meets the allocator. One free list under one mutex holds two kinds of
// object: headers (Packet) and blocks, a poolBufSize buffer together
// with the count of packets sharing it. Make, New, Clone and every copy
// (Uniqueify, Push/Put past the slack, Realign) draw from it; Kill
// returns the header, and the block with it when the last reference
// drops. A buffer too big for a block is allocated at its size and left
// to the garbage collector. Make and Kill take the mutex once each, and
// Make's packet ID comes from the same critical section. The run loop's
// goroutine does nearly all the getting and putting; the mutex is for
// the drivers and tests that make or kill packets on their own
// goroutines.
//
// Ownership: a *Packet is dead to its holder after Kill, or after being
// handed downstream (pushed to an output, returned from a pull, enqueued
// on a device). The header may already be another packet, so the old
// holder must not read it, write it or Kill it again; it keeps a Clone
// to keep the bytes. Race builds retire killed headers instead of
// recycling them, and every method called on one panics with "packet:
// use after Kill"; so does a second Kill once any header has been handed
// out since the first, which is when recycling would have made it
// somebody else's packet. Other builds detect neither.

const (
	poolBufSize = 2048 // covers MTU-sized packets with default slack
	poolMax     = 2048 // bound on retained blocks (4 MiB), and on headers
)

// block is a buffer and the number of packets that share it.
type block struct {
	refs int32 // atomic once the block is shared
	buf  []byte
}

// release drops one reference and reports whether it was the last. A
// sole holder skips the read-modify-write: only a holder can add a
// reference, so a count of one cannot rise under it.
func (b *block) release() bool {
	return atomic.LoadInt32(&b.refs) == 1 || atomic.AddInt32(&b.refs, -1) == 0
}

var pool struct {
	sync.Mutex
	hdrs   []*Packet
	blocks []*block
	nextID uint64 // headers handed out so far; feeds Packet.ID
}

// get is the one trip through the pool that Make, Clone and the copy
// paths each take. It returns a header if hdr is set, and an unshared
// block of at least size bytes unless size is negative. The header
// carries a fresh ID. stale reports that the block was recycled, so its
// bytes are a dead packet's.
func get(hdr bool, size int) (p *Packet, b *block, stale bool) {
	pool.Lock()
	if hdr {
		if n := len(pool.hdrs); n > 0 {
			p, pool.hdrs = pool.hdrs[n-1], pool.hdrs[:n-1]
		} else {
			p = new(Packet)
		}
		pool.nextID++
		p.ID = pool.nextID
	}
	if n := len(pool.blocks); n > 0 && size >= 0 && size <= poolBufSize {
		b, pool.blocks = pool.blocks[n-1], pool.blocks[:n-1]
		stale = true
	}
	pool.Unlock()
	if b == nil && size >= 0 {
		b = &block{buf: make([]byte, max(size, poolBufSize))}
	}
	if b != nil {
		b.refs = 1
	}
	return p, b, stale
}

// put returns a dead header and an unreferenced block to the pool;
// either may be nil. A race build retires the header instead, stamped
// with the ID of the last one handed out.
func put(p *Packet, b *block) {
	pool.Lock()
	if p != nil && RaceEnabled {
		p.ID = pool.nextID
	} else if p != nil && len(pool.hdrs) < poolMax {
		pool.hdrs = append(pool.hdrs, p)
	}
	if b != nil && len(b.buf) == poolBufSize && len(pool.blocks) < poolMax {
		pool.blocks = append(pool.blocks, b)
	}
	pool.Unlock()
}

// reissued reports whether a header has been handed out since p was
// retired.
func reissued(p *Packet) bool {
	pool.Lock()
	defer pool.Unlock()
	return p.ID != pool.nextID
}
