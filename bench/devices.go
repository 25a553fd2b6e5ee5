package main

import (
	"bytes"

	"repro/internal/elements"
	rio "repro/internal/io"
	"repro/internal/packet"
)

// expectation is what the sink requires of a forwarded frame carrying a
// given tag: the egress device, and (when Frame is set) the exact bytes.
type expectation struct {
	Dev   int
	Frame []byte
}

// sink checks and counts every frame a router transmits on the harness's
// in-memory devices. Checking allocates nothing.
type sink struct {
	expect []expectation // by tag
	ipOnly bool          // frames start at the IP header (ctl-churn tenants)
	// capture turns the table around: forwarded frames are copied into
	// it instead of being compared with it.
	capture bool

	delivered int64
	bad       int64 // forwarded frames on the wrong device or with wrong bytes
	byDev     [][numOutcomes]int64
}

func newSink(devs int, expect []expectation, ipOnly bool) *sink {
	return &sink{expect: expect, ipOnly: ipOnly, byDev: make([][numOutcomes]int64, devs)}
}

func (s *sink) check(dev int, d []byte) {
	s.delivered++
	c := outForwarded
	if !s.ipOnly {
		c = classifyFrame(d)
	}
	s.byDev[dev][c]++
	if c != outForwarded {
		return
	}
	tag := frameTag(d)
	if int(tag) >= len(s.expect) {
		s.bad++
		return
	}
	e := &s.expect[tag]
	if s.capture {
		e.Dev, e.Frame = dev, append([]byte(nil), d...)
		return
	}
	if e.Dev != dev || (e.Frame != nil && !bytes.Equal(d, e.Frame)) {
		s.bad++
	}
}

// memDev is the harness-owned in-memory device: RX hands out prebuilt
// frames as fresh packets, TX checks the frame against the sink and
// kills it. With a tracer it records one span per delivering call.
type memDev struct {
	name string
	id   int
	rx   [][]byte
	sink *sink
	tr   *tracer
}

func (d *memDev) DeviceName() string { return d.name }
func (d *memDev) TxRoom() bool       { return true }
func (d *memDev) TxClean() int       { return 0 }

func (d *memDev) RxDequeue() *packet.Packet {
	if len(d.rx) == 0 {
		return nil
	}
	if d.tr != nil {
		d.tr.begin(layDevRx, nanotime())
	}
	p := packet.New(d.rx[0])
	d.rx = d.rx[1:]
	if d.tr != nil {
		d.tr.end(nanotime())
	}
	return p
}

func (d *memDev) RxDequeueBatch(buf []*packet.Packet) int {
	n := len(d.rx)
	if n == 0 {
		return 0
	}
	if n > len(buf) {
		n = len(buf)
	}
	if d.tr != nil {
		d.tr.begin(layDevRx, nanotime())
	}
	for i := 0; i < n; i++ {
		buf[i] = packet.New(d.rx[i])
	}
	d.rx = d.rx[n:]
	if d.tr != nil {
		d.tr.end(nanotime())
	}
	return n
}

func (d *memDev) TxEnqueue(p *packet.Packet) bool {
	if d.tr != nil {
		d.tr.begin(layDevTx, nanotime())
	}
	d.sink.check(d.id, p.Data())
	p.Kill()
	if d.tr != nil {
		d.tr.end(nanotime())
	}
	return true
}

func (d *memDev) TxEnqueueBatch(ps []*packet.Packet) int {
	if d.tr != nil {
		d.tr.begin(layDevTx, nanotime())
	}
	for _, p := range ps {
		d.sink.check(d.id, p.Data())
		p.Kill()
	}
	if d.tr != nil {
		d.tr.end(nanotime())
	}
	return len(ps)
}

var (
	_ elements.Device      = (*memDev)(nil)
	_ elements.BatchDevice = (*memDev)(nil)
)

// spanBackend wraps a real io.Backend so the harness sees every call the
// io.Device adapter makes into it. onRecv, when set, is handed each
// received batch (sock-udp reads the sequence numbers for io.rx_wait_us).
type spanBackend struct {
	rio.Backend
	tr     *tracer
	onRecv func(frames [][]byte, now int64)

	recvFrames, sendFrames int64
}

func (b *spanBackend) Recv(buf [][]byte) (int, error) {
	if b.tr == nil {
		return b.Backend.Recv(buf)
	}
	b.tr.begin(layBackendRx, nanotime())
	n, err := b.Backend.Recv(buf)
	now := nanotime()
	b.tr.end(now)
	if n > 0 {
		b.recvFrames += int64(n)
		if b.onRecv != nil {
			b.onRecv(buf[:n], now)
		}
	}
	return n, err
}

func (b *spanBackend) Send(frames [][]byte) (int, error) {
	if b.tr == nil {
		return b.Backend.Send(frames)
	}
	b.tr.begin(layBackendTx, nanotime())
	n, err := b.Backend.Send(frames)
	b.tr.end(nanotime())
	b.sendFrames += int64(n)
	return n, err
}

// spanDevice wraps the io.Device adapter the same way; its self time
// (span minus the backend span inside it) is the adapter's own cost:
// frame-to-packet copies on RX, serialising and Kill on TX.
type spanDevice struct {
	*rio.Device
	tr *tracer
}

func (d *spanDevice) RxDequeue() *packet.Packet {
	if d.tr == nil {
		return d.Device.RxDequeue()
	}
	d.tr.begin(layAdapterRx, nanotime())
	p := d.Device.RxDequeue()
	d.tr.end(nanotime())
	return p
}

func (d *spanDevice) RxDequeueBatch(buf []*packet.Packet) int {
	if d.tr == nil {
		return d.Device.RxDequeueBatch(buf)
	}
	d.tr.begin(layAdapterRx, nanotime())
	n := d.Device.RxDequeueBatch(buf)
	d.tr.end(nanotime())
	return n
}

func (d *spanDevice) TxEnqueue(p *packet.Packet) bool {
	if d.tr == nil {
		return d.Device.TxEnqueue(p)
	}
	d.tr.begin(layAdapterTx, nanotime())
	ok := d.Device.TxEnqueue(p)
	d.tr.end(nanotime())
	return ok
}

func (d *spanDevice) TxEnqueueBatch(ps []*packet.Packet) int {
	if d.tr == nil {
		return d.Device.TxEnqueueBatch(ps)
	}
	d.tr.begin(layAdapterTx, nanotime())
	n := d.Device.TxEnqueueBatch(ps)
	d.tr.end(nanotime())
	return n
}

var (
	_ elements.Device      = (*spanDevice)(nil)
	_ elements.BatchDevice = (*spanDevice)(nil)
)
