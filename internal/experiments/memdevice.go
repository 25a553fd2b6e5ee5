package experiments

import "repro/internal/packet"

// memDevice is an in-memory elements.Device: a preloaded RX queue and a
// TX counter. It also implements elements.BatchDevice so the batched
// device paths are exercised.
type memDevice struct {
	name string
	rx   []*packet.Packet
	sent int64
}

func (d *memDevice) DeviceName() string { return d.name }

func (d *memDevice) RxDequeue() *packet.Packet {
	if len(d.rx) == 0 {
		return nil
	}
	p := d.rx[0]
	d.rx = d.rx[1:]
	return p
}

func (d *memDevice) RxDequeueBatch(buf []*packet.Packet) int {
	n := copy(buf, d.rx)
	d.rx = d.rx[n:]
	return n
}

func (d *memDevice) TxEnqueue(p *packet.Packet) bool {
	d.sent++
	p.Kill()
	return true
}

func (d *memDevice) TxEnqueueBatch(ps []*packet.Packet) int {
	d.sent += int64(len(ps))
	for _, p := range ps {
		p.Kill()
	}
	return len(ps)
}

func (d *memDevice) TxRoom() bool { return true }
func (d *memDevice) TxClean() int { return 0 }
