package netsim

import (
	"fmt"
	"sync"

	"repro/internal/mgmt"
	"repro/internal/packet"
)

// The plane testbed drives a real mgmt.Plane — the incremental
// multi-tenant control plane — with scripted packet I/O. Unlike the
// event-driven Testbed (which models NIC timing on the simulated CPU),
// PlaneBed binds plain in-memory devices to each tenant: ingress
// frames are queued by the test, egress frames are captured
// byte-for-byte. The plane difftest compares that capture against an
// independent per-tenant reference router fed the same frames.

// PlaneDevice is one tenant interface: a scripted RX queue and a
// capturing TX sink. It is safe for concurrent use — the plane's pump
// dequeues/enqueues while the test injects and inspects.
type PlaneDevice struct {
	name string

	mu sync.Mutex
	rx [][]byte
	tx [][]byte
}

// DeviceName returns the scoped device name ("tenant:eth0").
func (d *PlaneDevice) DeviceName() string { return d.name }

// Inject queues frames for the tenant's PollDevice to receive, in
// order. The slices are used as packet payloads directly; callers must
// not mutate them afterwards.
func (d *PlaneDevice) Inject(frames ...[]byte) {
	d.mu.Lock()
	d.rx = append(d.rx, frames...)
	d.mu.Unlock()
}

// Pending returns the number of injected frames not yet received.
func (d *PlaneDevice) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rx)
}

// RxDequeue pops the next scripted frame as a fresh packet.
func (d *PlaneDevice) RxDequeue() *packet.Packet {
	d.mu.Lock()
	if len(d.rx) == 0 {
		d.mu.Unlock()
		return nil
	}
	frame := d.rx[0]
	d.rx = d.rx[1:]
	d.mu.Unlock()
	return packet.New(frame)
}

// TxEnqueue accepts every transmitted packet, copying its bytes.
func (d *PlaneDevice) TxEnqueue(p *packet.Packet) bool {
	frame := append([]byte(nil), p.Data()...)
	d.mu.Lock()
	d.tx = append(d.tx, frame)
	d.mu.Unlock()
	p.Kill()
	return true
}

// TxRoom reports the bottomless TX ring is never full.
func (d *PlaneDevice) TxRoom() bool { return true }

// TxClean reclaims nothing; transmits complete immediately.
func (d *PlaneDevice) TxClean() int { return 0 }

// Captured snapshots the transmitted frames.
func (d *PlaneDevice) Captured() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.tx...)
}

// PlaneBed is a mgmt.Plane wired to PlaneDevices. Devices are memoized
// per (tenant, device) name, so a tenant hot-swap rebinds the same
// rings and its ingress backlog and egress capture survive the swap —
// the same device identity a real NIC would keep.
type PlaneBed struct {
	Plane *mgmt.Plane

	mu   sync.Mutex
	devs map[string]*PlaneDevice
}

// NewPlaneBed builds a plane whose device provider hands out
// PlaneDevices.
func NewPlaneBed() (*PlaneBed, error) {
	b := &PlaneBed{devs: map[string]*PlaneDevice{}}
	p, err := mgmt.NewPlane(mgmt.Options{
		Devices: func(tenant, dev string) interface{} { return b.Device(tenant, dev) },
	})
	if err != nil {
		return nil, err
	}
	b.Plane = p
	return b, nil
}

// Device returns the tenant's named device, creating it on first use
// (the plane's provider calls this at admission; tests may call it
// before or after).
func (b *PlaneBed) Device(tenant, dev string) *PlaneDevice {
	key := tenant + ":" + dev
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.devs[key]
	if !ok {
		d = &PlaneDevice{name: key}
		b.devs[key] = d
	}
	return d
}

// PendingRx sums the undelivered ingress backlog across every device.
func (b *PlaneBed) PendingRx() int {
	b.mu.Lock()
	devs := make([]*PlaneDevice, 0, len(b.devs))
	for _, d := range b.devs {
		devs = append(devs, d)
	}
	b.mu.Unlock()
	n := 0
	for _, d := range devs {
		n += d.Pending()
	}
	return n
}

// Settle drives the plane's scheduler directly (the pump must not be
// running) until the ingress backlog drains and the router goes idle,
// bounded by maxRounds scheduling quanta. It returns an error if work
// remains — a dropped backlog here means a tenant's path is wired
// wrong, not that the bed should wait longer.
func (b *PlaneBed) Settle(maxRounds int) error {
	sched := b.Plane.Scheduler()
	for i := 0; i < maxRounds; i++ {
		moved := sched.RunUntilIdle(4096)
		if moved == 0 && b.PendingRx() == 0 {
			return nil
		}
	}
	if pending := b.PendingRx(); pending > 0 {
		return fmt.Errorf("netsim: planebed did not settle: %d frames still pending after %d rounds", pending, maxRounds)
	}
	return nil
}

// IPFrame builds an IP-first UDP frame — the presentation IPFilter and
// IPClassifier match on (network header at offset zero), so scripted
// tenants need no decapsulation stage in front of their classifiers.
func IPFrame(src, dst packet.IP4, sport, dport uint16, payload int) []byte {
	p := packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{}, src, dst, sport, dport, make([]byte, payload))
	p.Pull(packet.EtherHeaderLen)
	frame := append([]byte(nil), p.Data()...)
	p.Kill()
	return frame
}
