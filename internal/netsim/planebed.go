package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mgmt"
	"repro/internal/packet"
)

// The plane testbed drives a real mgmt.Plane — the incremental
// multi-tenant control plane — with scripted packet I/O. Unlike the
// event-driven Testbed (which models NIC timing on the simulated CPU),
// PlaneBed binds plain in-memory devices to each tenant: ingress
// frames are queued by the test or benchmark, egress frames are
// counted and optionally captured byte-for-byte. That makes it both
// the load generator for the mgmtscale experiment (is the dataplane
// still forwarding while tenants come and go?) and the oracle for the
// incremental-vs-rebuild equivalence difftests (did the spliced router
// emit exactly the frames the from-scratch router does?).

// PlaneDevice is one tenant interface: a scripted RX queue and a
// counting (optionally capturing) TX sink. It is safe for concurrent
// use — the plane's pump dequeues/enqueues while the test injects and
// inspects.
type PlaneDevice struct {
	name    string
	capture bool

	mu sync.Mutex
	rx [][]byte
	tx [][]byte

	rxCount int64
	txCount int64
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
	atomic.AddInt64(&d.rxCount, 1)
	return packet.New(frame)
}

// TxEnqueue accepts every transmitted packet, copying its bytes when
// capture is on.
func (d *PlaneDevice) TxEnqueue(p *packet.Packet) bool {
	if d.capture {
		frame := append([]byte(nil), p.Data()...)
		d.mu.Lock()
		d.tx = append(d.tx, frame)
		d.mu.Unlock()
	}
	atomic.AddInt64(&d.txCount, 1)
	p.Kill()
	return true
}

// TxRoom reports the bottomless TX ring is never full.
func (d *PlaneDevice) TxRoom() bool { return true }

// TxClean reclaims nothing; transmits complete immediately.
func (d *PlaneDevice) TxClean() int { return 0 }

// TxCount returns the number of frames transmitted so far.
func (d *PlaneDevice) TxCount() int64 { return atomic.LoadInt64(&d.txCount) }

// Captured snapshots the transmitted frames (capture mode only).
func (d *PlaneDevice) Captured() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.tx...)
}

// PlaneBedOptions configure a plane testbed.
type PlaneBedOptions struct {
	// Burst is the plane's router-wide batch size.
	Burst int
	// FullRebuild and NoShare select the plane's baseline modes.
	FullRebuild bool
	NoShare     bool
	// Capture records every egress frame byte-for-byte (the
	// equivalence difftests need it; the scale benchmark leaves it off
	// and uses counts).
	Capture bool
}

// PlaneBed is a mgmt.Plane wired to PlaneDevices. Devices are memoized
// per (tenant, device) name, so a tenant hot-swap rebinds the same
// rings and its ingress backlog and egress capture survive the swap —
// the same device identity a real NIC would keep.
type PlaneBed struct {
	Plane *mgmt.Plane

	mu   sync.Mutex
	devs map[string]*PlaneDevice
	opts PlaneBedOptions
}

// NewPlaneBed builds a plane whose device provider hands out
// PlaneDevices.
func NewPlaneBed(o PlaneBedOptions) (*PlaneBed, error) {
	b := &PlaneBed{devs: map[string]*PlaneDevice{}, opts: o}
	p, err := mgmt.NewPlane(mgmt.Options{
		Burst:       o.Burst,
		FullRebuild: o.FullRebuild,
		NoShare:     o.NoShare,
		Devices:     func(tenant, dev string) interface{} { return b.Device(tenant, dev) },
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
		d = &PlaneDevice{name: key, capture: b.opts.Capture}
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

// TotalTx sums transmitted frames across every device.
func (b *PlaneBed) TotalTx() int64 {
	b.mu.Lock()
	devs := make([]*PlaneDevice, 0, len(b.devs))
	for _, d := range b.devs {
		devs = append(devs, d)
	}
	b.mu.Unlock()
	var n int64
	for _, d := range devs {
		n += d.TxCount()
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
