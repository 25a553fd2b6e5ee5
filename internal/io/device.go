package io

import (
	stdio "io"
	"sync/atomic"

	"repro/internal/packet"
)

// Device adapts a Backend to the elements.Device (and BatchDevice)
// interface PollDevice/FromDevice/ToDevice drive, translating between
// raw frames and packet.Packet. Received frames are copied into fresh
// packets (backends own their buffers); transmitted packets are
// serialized out and killed. The adapter does no cost-model
// accounting: a router built without a CPU charges zero model cycles
// regardless of the backend behind it.
type Device struct {
	name string
	be   Backend

	rxScratch [][]byte
	txScratch [][]byte
	eof       bool

	// Rx and Tx count frames moved; TxErrors counts frames a backend
	// send refused or failed.
	Rx       int64
	Tx       int64
	TxErrors int64
}

// NewDevice wraps a backend as a named device. The backend must be
// opened (Open) before the router runs; OpenDevice does both.
func NewDevice(name string, be Backend) *Device {
	return &Device{name: name, be: be}
}

// OpenDevice wraps and opens a backend as a named device.
func OpenDevice(name string, be Backend) (*Device, error) {
	if err := be.Open(); err != nil {
		return nil, err
	}
	return NewDevice(name, be), nil
}

// Backend returns the wrapped backend.
func (d *Device) Backend() Backend { return d.be }

// EOF reports whether the backend's receive side is exhausted (a pcap
// replay that delivered its last frame).
func (d *Device) EOF() bool { return d.eof }

// Close closes the wrapped backend.
func (d *Device) Close() error { return d.be.Close() }

// DeviceName implements elements.Device.
func (d *Device) DeviceName() string { return d.name }

// RxDequeue implements elements.Device: receive one frame as a packet.
func (d *Device) RxDequeue() *packet.Packet {
	if d.eof {
		return nil
	}
	if cap(d.rxScratch) < 1 {
		d.rxScratch = make([][]byte, 1)
	}
	n, err := d.be.Recv(d.rxScratch[:1])
	if err == stdio.EOF {
		d.eof = true
	}
	if n == 0 {
		return nil
	}
	atomic.AddInt64(&d.Rx, 1)
	return packet.New(d.rxScratch[0])
}

// RxDequeueBatch implements elements.BatchDevice.
func (d *Device) RxDequeueBatch(buf []*packet.Packet) int {
	if d.eof {
		return 0
	}
	if cap(d.rxScratch) < len(buf) {
		d.rxScratch = make([][]byte, len(buf))
	}
	n, err := d.be.Recv(d.rxScratch[:len(buf)])
	if err == stdio.EOF {
		d.eof = true
	}
	for i := 0; i < n; i++ {
		buf[i] = packet.New(d.rxScratch[i])
	}
	if n > 0 {
		atomic.AddInt64(&d.Rx, int64(n))
	}
	return n
}

// TxEnqueue implements elements.Device: transmit one packet's frame.
func (d *Device) TxEnqueue(p *packet.Packet) bool {
	if cap(d.txScratch) < 1 {
		d.txScratch = make([][]byte, 1)
	}
	d.txScratch[0] = p.Data()
	n, err := d.be.Send(d.txScratch[:1])
	if n == 1 && err == nil {
		atomic.AddInt64(&d.Tx, 1)
	} else {
		atomic.AddInt64(&d.TxErrors, 1)
	}
	p.Kill()
	// The frame is never re-offered: a backend that refused it has no
	// DMA ring for it to wait in, so the send is accounted and dropped.
	return true
}

// TxEnqueueBatch implements elements.BatchDevice.
func (d *Device) TxEnqueueBatch(ps []*packet.Packet) int {
	if cap(d.txScratch) < len(ps) {
		d.txScratch = make([][]byte, len(ps))
	}
	for i, p := range ps {
		d.txScratch[i] = p.Data()
	}
	n, err := d.be.Send(d.txScratch[:len(ps)])
	atomic.AddInt64(&d.Tx, int64(n))
	if err != nil || n < len(ps) {
		atomic.AddInt64(&d.TxErrors, int64(len(ps)-n))
	}
	for _, p := range ps {
		p.Kill()
	}
	return len(ps)
}

// TxRoom implements elements.Device: backends apply their own
// backpressure (socket buffers, file writes), so the adapter always
// has room.
func (d *Device) TxRoom() bool { return true }

// TxClean implements elements.Device: nothing to reclaim.
func (d *Device) TxClean() int { return 0 }
