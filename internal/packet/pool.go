package packet

import "sync"

// Buffer recycling, as Click recycles sk_buffs: a router at full rate
// would otherwise hammer the allocator (and, here, the garbage
// collector) with one short-lived buffer per packet. The pool is one
// bounded free list. The run loop's goroutine does nearly all the
// getting and putting; the mutex is for the backend pumps, drivers and
// tests that make or kill packets on their own goroutines.

const (
	poolBufSize = 2048 // covers MTU-sized packets with default slack
	poolMax     = 2048 // bound on retained buffers (4 MiB)
)

var (
	poolMu sync.Mutex
	pool   [][]byte
)

// getBuf takes a recycled buffer of capacity poolBufSize, or nil.
func getBuf() []byte {
	poolMu.Lock()
	defer poolMu.Unlock()
	n := len(pool)
	if n == 0 {
		return nil
	}
	b := pool[n-1]
	pool = pool[:n-1]
	return b
}

// putBuf returns a buffer to the pool if it is recyclable and the pool
// has room.
func putBuf(b []byte) {
	if cap(b) < poolBufSize {
		return
	}
	poolMu.Lock()
	if len(pool) < poolMax {
		pool = append(pool, b[:cap(b)])
	}
	poolMu.Unlock()
}

// poolReset discards every retained buffer (test hook).
func poolReset() {
	poolMu.Lock()
	pool = nil
	poolMu.Unlock()
}

// poolCount returns the number of retained buffers (test hook).
func poolCount() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return len(pool)
}
