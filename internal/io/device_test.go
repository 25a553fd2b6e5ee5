package io

import (
	"testing"

	"repro/internal/packet"
)

// echoBackend is a stub Backend: Recv hands out one fixed frame per
// slot, Send counts.
type echoBackend struct {
	frame []byte
	sent  int
}

func (b *echoBackend) Open() error  { return nil }
func (b *echoBackend) Close() error { return nil }
func (b *echoBackend) Recv(buf [][]byte) (int, error) {
	for i := range buf {
		buf[i] = b.frame
	}
	return len(buf), nil
}
func (b *echoBackend) Send(frames [][]byte) (int, error) {
	b.sent += len(frames)
	return len(frames), nil
}

// TestDeviceAllocatesNothing is the adapter's allocation gate: frames
// become packets on RX and packets become frames on TX, scalar and
// batched, without reaching the allocator once the pool is warm.
func TestDeviceAllocatesNothing(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("headers are not recycled under -race")
	}
	be := &echoBackend{frame: testFrames(1)[0]}
	dev := NewDevice("eth0", be)
	var batch [32]*packet.Packet
	allocs := testing.AllocsPerRun(1000, func() {
		dev.TxEnqueue(dev.RxDequeue())
		dev.TxEnqueueBatch(batch[:dev.RxDequeueBatch(batch[:])])
	})
	if allocs != 0 {
		t.Errorf("RX→TX allocates %v times per 33 frames, want 0", allocs)
	}
	if dev.Rx != dev.Tx || int(dev.Tx) != be.sent || be.sent != 33*1001 {
		t.Errorf("rx %d, tx %d, backend sent %d, want %d each", dev.Rx, dev.Tx, be.sent, 33*1001)
	}
}
