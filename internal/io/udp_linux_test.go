package io_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
)

func TestUDPOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	openUDPPair(t)
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("Open went from %d goroutines to %d", before, after)
	}
}

// TestUDPRecvAllocatesNothing: a datagram read from the socket and
// handed out reaches the allocator zero times (sending it neither).
func TestUDPRecvAllocatesNothing(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	be, peer, addr := openUDPPair(t)
	frame := make([]byte, 64)
	buf := make([][]byte, 1)
	allocs := testing.AllocsPerRun(200, func() {
		peer.WriteToUDP(frame, addr)
		recvWithin(t, be, buf)
	})
	if allocs != 0 {
		t.Errorf("send + Recv allocates %v times per frame, want 0", allocs)
	}
}

// After Close, Recv hands out nothing, not even the datagrams already
// read into the now unmapped slots.
func TestUDPRecvAfterClose(t *testing.T) {
	be, peer, addr := openUDPPair(t)
	for i := 0; i < 3; i++ {
		peer.WriteToUDP([]byte{byte(i)}, addr)
	}
	buf := make([][]byte, 1)
	if recvWithin(t, be, buf) != 1 {
		t.Fatal("no frame received")
	}
	be.Close()
	if n, _ := be.Recv(buf); n != 0 {
		t.Fatalf("Recv after Close delivered %d frames", n)
	}
}

// TestUDPRxDroppedCountsKernelDrops: a burst larger than the socket's
// queue loses datagrams in the kernel, and every datagram is either
// received or counted in RxDropped. The kernel reports its drop counter
// on the next datagram it queues, so the last one is sent after the
// queue has been drained.
func TestUDPRxDroppedCountsKernelDrops(t *testing.T) {
	be, peer, addr := openUDPPair(t)
	// The backend's queue holds ~1 260 64-byte datagrams at most.
	const n = 5000
	frame := make([]byte, 64)
	for i := 0; i < n-1; i++ {
		if _, err := peer.WriteToUDP(frame, addr); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([][]byte, 8)
	received := 0
	drain := func() {
		for {
			got, err := be.Recv(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got == 0 {
				return
			}
			received += got
		}
	}
	drain()
	if _, err := peer.WriteToUDP(frame, addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for received+int(atomic.LoadInt64(&be.RxDropped)) < n && time.Now().Before(deadline) {
		drain()
	}
	dropped := int(atomic.LoadInt64(&be.RxDropped))
	if received+dropped != n || dropped == 0 {
		t.Errorf("received %d + dropped %d, want %d with some dropped", received, dropped, n)
	}
}
