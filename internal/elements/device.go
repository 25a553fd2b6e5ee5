package elements

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// Device is the hardware interface PollDevice and ToDevice drive. The
// network simulator implements it with its Tulip model; tests implement
// it with in-memory queues.
type Device interface {
	// DeviceName returns the configuration name ("eth0").
	DeviceName() string
	// RxDequeue removes the next received packet from the RX DMA ring
	// and refills the ring slot; nil means the ring is empty.
	RxDequeue() *packet.Packet
	// TxEnqueue places a packet on the TX DMA ring; false means the
	// ring is full.
	TxEnqueue(p *packet.Packet) bool
	// TxRoom reports whether the TX DMA ring can accept a packet.
	TxRoom() bool
	// TxClean reclaims transmitted descriptors, returning the number
	// reclaimed.
	TxClean() int
}

// BatchDevice is implemented by devices whose DMA rings can be drained
// or filled several packets at a time, saving the per-call ring
// bookkeeping. PollDevice and ToDevice use it when running with a
// burst greater than one; devices without it are driven through the
// scalar ring operations in a loop.
type BatchDevice interface {
	// RxDequeueBatch fills buf with up to len(buf) received packets and
	// returns how many it delivered.
	RxDequeueBatch(buf []*packet.Packet) int
	// TxEnqueueBatch places packets on the TX ring until it fills,
	// returning how many were accepted.
	TxEnqueueBatch(ps []*packet.Packet) int
}

// IdleDevice is an in-memory Device with an empty receive ring and a
// bottomless transmit ring that discards what it is given. It is what
// the driver and the management plane bind for a device nobody
// provided, so hardware-facing configurations initialize and run (idle)
// standalone.
type IdleDevice struct{ Name string }

func (d *IdleDevice) DeviceName() string        { return d.Name }
func (d *IdleDevice) RxDequeue() *packet.Packet { return nil }
func (d *IdleDevice) TxEnqueue(p *packet.Packet) bool {
	p.Kill()
	return true
}
func (d *IdleDevice) TxRoom() bool { return true }
func (d *IdleDevice) TxClean() int { return 0 }

// StripDevirt removes a click-devirtualize "_dvN" suffix, exposing the
// base class a devirtualized element specializes.
func StripDevirt(class string) string {
	i := strings.LastIndex(class, "_dv")
	if i < 0 || i+3 >= len(class) {
		return class
	}
	for _, c := range class[i+3:] {
		if c < '0' || c > '9' {
			return class
		}
	}
	return class[:i]
}

// ReadsDevice reports whether class receives frames from the device its
// first configuration argument names (PollDevice, FromDevice and their
// devirtualized variants).
func ReadsDevice(class string) bool {
	c := StripDevirt(class)
	return c == "PollDevice" || c == "FromDevice"
}

// BindsDevice reports whether class binds the device its first
// configuration argument names from the router environment at
// initialization: the input classes plus ToDevice.
func BindsDevice(class string) bool {
	return ReadsDevice(class) || StripDevirt(class) == "ToDevice"
}

// rxDequeueBatch drains up to len(buf) packets from dev, through bd, its
// BatchDevice or nil, resolved at Initialize: an assertion per burst
// may allocate while its call site's type cache learns a new type.
func rxDequeueBatch(dev Device, bd BatchDevice, buf []*packet.Packet) int {
	if bd != nil {
		return bd.RxDequeueBatch(buf)
	}
	n := 0
	for n < len(buf) {
		p := dev.RxDequeue()
		if p == nil {
			break
		}
		buf[n] = p
		n++
	}
	return n
}

// txEnqueueBatch enqueues packets until the ring fills, through bd
// as rxDequeueBatch, and returns how many were accepted.
func txEnqueueBatch(dev Device, bd BatchDevice, ps []*packet.Packet) int {
	if bd != nil {
		return bd.TxEnqueueBatch(ps)
	}
	n := 0
	for _, p := range ps {
		if !dev.TxEnqueue(p) {
			break
		}
		n++
	}
	return n
}

// parseDeviceArgs parses DEVNAME [, BURST] for the device elements.
func parseDeviceArgs(class string, args []string) (string, int, error) {
	if len(args) < 1 || len(args) > 2 || args[0] == "" {
		return "", 0, fmt.Errorf("%s: expects DEVNAME [, BURST]", class)
	}
	burst := 0
	if len(args) == 2 && args[1] != "" {
		n, err := strconv.Atoi(args[1])
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("%s: bad burst %q", class, args[1])
		}
		burst = n
	}
	return args[0], burst, nil
}

// EnvDevice returns the device registered under "device:<name>" in the
// router environment.
func EnvDevice(rt *core.Router, name string) (Device, error) {
	v := rt.Env("device:" + name)
	if v == nil {
		return nil, fmt.Errorf("no device %q in router environment", name)
	}
	dev, ok := v.(Device)
	if !ok {
		return nil, fmt.Errorf("environment object %q is not a Device", name)
	}
	return dev, nil
}

// PollDevice polls a device's receive DMA ring and pushes received
// packets into the graph — Click's polling driver structure, which
// replaced interrupt-driven receive to eliminate receive livelock (§3).
// By default each RunTask handles at most one packet (Click's POLLDEV
// burst of 1 in the evaluation configuration); an optional BURST
// argument, or the router's Burst build option, drains up to BURST
// packets per run and pushes them as one batch.
type PollDevice struct {
	core.Base
	devName string
	dev     Device
	batch   BatchDevice // dev, when it moves bursts; nil otherwise
	burst   int
	scratch []*packet.Packet
	Recv    int64
}

// Configure accepts DEVNAME [, BURST].
func (e *PollDevice) Configure(args []string) error {
	name, burst, err := parseDeviceArgs("PollDevice", args)
	if err != nil {
		return err
	}
	e.devName, e.burst = name, burst
	return nil
}

// Initialize binds the device from the router environment.
func (e *PollDevice) Initialize(rt *core.Router) error {
	dev, err := EnvDevice(rt, e.devName)
	if err != nil {
		return err
	}
	e.dev = dev
	e.batch, _ = dev.(BatchDevice)
	return nil
}

// RunTask polls the RX ring once, draining up to one burst.
func (e *PollDevice) RunTask() bool {
	if e.dev == nil {
		return false
	}
	burst := e.burst
	if burst == 0 {
		burst = e.DefaultBurst()
	}
	if burst <= 1 {
		p := e.dev.RxDequeue()
		if p == nil {
			return false
		}
		e.Recv++
		if cpu := e.CPU(); cpu != nil {
			prev := cpu.SetCategory(simcpu.CatRxDevice)
			cpu.Charge(costRxDeviceInteraction)
			cpu.MemFetch(1) // load the RX DMA descriptor
			cpu.SetCategory(simcpu.CatForward)
			e.Work()
			e.Output(0).Push(p)
			cpu.SetCategory(prev)
			return true
		}
		e.Work()
		e.Output(0).Push(p)
		return true
	}
	if cap(e.scratch) < burst {
		e.scratch = make([]*packet.Packet, burst)
	}
	n := rxDequeueBatch(e.dev, e.batch, e.scratch[:burst])
	if n == 0 {
		return false
	}
	e.Recv += int64(n)
	if cpu := e.CPU(); cpu != nil {
		prev := cpu.SetCategory(simcpu.CatRxDevice)
		// DMA descriptors are still handled per packet; only the
		// inter-element transfer is amortized.
		cpu.Charge(int64(n) * costRxDeviceInteraction)
		cpu.MemFetch(n)
		cpu.SetCategory(simcpu.CatForward)
		for i := 0; i < n; i++ {
			e.Work()
		}
		e.Output(0).PushBatch(e.scratch[:n])
		cpu.SetCategory(prev)
		return true
	}
	for i := 0; i < n; i++ {
		e.Work()
	}
	e.Output(0).PushBatch(e.scratch[:n])
	return true
}

// FromDevice is an alias class for PollDevice in this driver (the
// evaluation always runs polling drivers).
type FromDevice struct{ PollDevice }

// ToDevice pulls packets from its input and enqueues them on a device's
// transmit DMA ring. Each RunTask first reclaims transmitted
// descriptors, then moves at most one packet — or up to BURST packets
// as one batched pull when a burst is configured (argument or router
// Burst build option).
type ToDevice struct {
	core.Base
	devName string
	dev     Device
	batch   BatchDevice // dev, when it moves bursts; nil otherwise
	burst   int
	scratch []*packet.Packet
	Sent    int64
	// Rejected counts pulls refused because the TX ring was full —
	// the §8.4 instrumentation showing ToDevice "chose not to pull".
	Rejected int64
	// sleeps is set when a push wakes the task (wakeOnPush), so it
	// sleeps after a pull that found nothing.
	sleeps bool
}

// Configure accepts DEVNAME [, BURST].
func (e *ToDevice) Configure(args []string) error {
	name, burst, err := parseDeviceArgs("ToDevice", args)
	if err != nil {
		return err
	}
	e.devName, e.burst = name, burst
	return nil
}

// Initialize binds the device from the router environment.
func (e *ToDevice) Initialize(rt *core.Router) error {
	dev, err := EnvDevice(rt, e.devName)
	if err != nil {
		return err
	}
	e.dev = dev
	e.batch, _ = dev.(BatchDevice)
	e.sleeps = wakeOnPush(e.Input(0), &e.Base)
	return nil
}

// RunTask cleans the TX ring and sends up to one burst of packets.
func (e *ToDevice) RunTask() bool {
	if e.dev == nil {
		return false
	}
	burst := e.burst
	if burst == 0 {
		burst = e.DefaultBurst()
	}
	cleaned := e.dev.TxClean()
	// Refuse to pull when the TX DMA queue is full; the packet stays in
	// the upstream Queue (this idleness is what §8.4 instruments).
	if !e.dev.TxRoom() {
		e.Rejected++
		return cleaned > 0
	}
	var prev simcpu.Category
	var snap simcpu.CatSnapshot
	cpu := e.CPU()
	if cpu != nil {
		prev = cpu.SetCategory(simcpu.CatForward)
		snap = cpu.CategorySnapshot()
	}
	if burst <= 1 {
		p := e.Input(0).Pull()
		if p == nil {
			if cpu != nil {
				// An empty pull is scheduler idling, not per-packet path
				// cost; keep the Figure 8 categories clean (the paper's
				// counters wrap actual packet processing).
				cpu.ReclassifyAsOther(snap)
				cpu.SetCategory(prev)
			}
			if e.sleeps {
				e.Sleep()
			}
			return cleaned > 0
		}
		e.Work()
		if cpu != nil {
			cpu.SetCategory(simcpu.CatTxDevice)
			cpu.Charge(costTxDeviceInteraction)
			cpu.MemFetch(1) // reclaim the sent TX descriptor
			cpu.SetCategory(prev)
		}
		plen := int64(p.Len())
		if e.dev.TxEnqueue(p) {
			e.Sent++
			e.CountDelivered(1, plen)
		} else {
			e.Drop(p)
		}
		return true
	}
	if cap(e.scratch) < burst {
		e.scratch = make([]*packet.Packet, burst)
	}
	n := e.Input(0).PullBatch(e.scratch[:burst])
	if n == 0 {
		if cpu != nil {
			cpu.ReclassifyAsOther(snap)
			cpu.SetCategory(prev)
		}
		if e.sleeps {
			e.Sleep()
		}
		return cleaned > 0
	}
	for i := 0; i < n; i++ {
		e.Work()
	}
	if cpu != nil {
		cpu.SetCategory(simcpu.CatTxDevice)
		// TX descriptors are still per packet; only the pull dispatch
		// was amortized.
		cpu.Charge(int64(n) * costTxDeviceInteraction)
		cpu.MemFetch(n)
		cpu.SetCategory(prev)
	}
	var bytes int64
	for i := 0; i < n; i++ {
		bytes += int64(e.scratch[i].Len())
	}
	sent := txEnqueueBatch(e.dev, e.batch, e.scratch[:n])
	e.Sent += int64(sent)
	for i := sent; i < n; i++ {
		bytes -= int64(e.scratch[i].Len())
		e.Drop(e.scratch[i])
	}
	e.CountDelivered(sent, bytes)
	return true
}
