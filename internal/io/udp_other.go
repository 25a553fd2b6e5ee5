//go:build !linux

package io

import (
	"sync"
	"sync/atomic"
)

// udpRingDepth is the receive ring between the socket pump goroutine
// and the router's task loop. Frames arriving while the ring is full
// are dropped and counted, like a NIC FIFO overflow.
const udpRingDepth = 1024

// udpRx is the portable receive path: the pump and its ring.
type udpRx struct {
	ring chan []byte
	wg   sync.WaitGroup
}

// openRx starts the pump.
func (u *UDP) openRx() error {
	u.ring = make(chan []byte, udpRingDepth)
	u.wg.Add(1)
	go u.pump()
	return nil
}

// pump blocks in the kernel receive path and fills the ring.
func (u *UDP) pump() {
	defer u.wg.Done()
	for {
		buf := make([]byte, DefaultSnapLen+1)
		n, _, err := u.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		select {
		case u.ring <- buf[:n]:
		default:
			atomic.AddInt64(&u.RxDropped, 1)
		}
	}
}

// Recv implements Backend: drain up to len(buf) pending frames without
// blocking.
func (u *UDP) Recv(buf [][]byte) (int, error) {
	n := 0
	for n < len(buf) {
		select {
		case f := <-u.ring:
			buf[n] = f
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// closeRx reaps the pump, which the socket's Close has stopped.
func (u *UDP) closeRx() { u.wg.Wait() }
