// Package core is the Click runtime kernel: the Element interface,
// ports whose packet transfer dispatches through the Element interface
// (charged by the cost model as a virtual or, once devirtualized, a
// direct call), router assembly from a configuration graph, and the
// task scheduler that stands in for Click's constantly-active kernel
// thread.
package core

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/simcpu"
)

// Element is a packet-processing component. Implementations embed Base
// and are written one of two ways. An element with one input whose
// packets continue on output 0 implements SimpleAction and nothing
// else: Base derives both burst transfers from it, so the class works in
// push and in pull context. Any other element (several inputs, a choice
// among outputs, several packets out per packet in) writes one burst
// transfer per direction: PushBatch for its push inputs, PullBatch for
// its pull outputs. Build rejects a class that writes both kinds. No
// class writes Push or Pull: Base's are the only scalar entry points,
// and they run a burst of one.
type Element interface {
	// Configure parses the element's configuration arguments. It runs
	// before ports are wired.
	Configure(args []string) error
	// Push accepts a packet on the given input port (push ports only).
	Push(port int, p *packet.Packet)
	// Pull requests a packet from the given output port (pull ports
	// only); nil means no packet available.
	Pull(port int) *packet.Packet

	base() *Base
}

// SimpleAction is the one method a one-in/one-out element writes: it
// handles p and returns the packet that continues — on output 0 in push
// context, to the puller in pull context. The result may be p itself or
// a replacement. Nil means the element has already disposed of p: Drop,
// or a push to a secondary (error) output, which is a push port in
// either context. The derived transfers charge Work once per packet
// before the call, so the action charges only data-dependent extras
// (Charge, MemFetch).
type SimpleAction interface {
	SimpleAction(p *packet.Packet) *packet.Packet
}

// Initializer is implemented by elements needing a post-wiring setup
// pass (e.g. ARPQuerier locating its paired device).
type Initializer interface {
	Initialize(rt *Router) error
}

// Task is implemented by elements that need the scheduler to call them
// repeatedly (device polling, queue draining). RunTask returns true if
// the task did useful work.
type Task interface {
	RunTask() bool
}

// TaskWeighter is implemented by information elements (ScheduleInfo)
// that assign scheduling weights to named tasks: a task with weight w
// runs w times per round.
type TaskWeighter interface {
	TaskWeights() map[string]int
}

// Base carries the runtime state shared by all elements: identity,
// wired ports, and the cost-model hookup. Elements embed it by value.
type Base struct {
	name    string
	class   string
	router  *Router
	outputs []OutPort
	inputs  []InPort
	cpu     *simcpu.CPU
	// workCycles is charged by Work() once per packet-handling call;
	// it comes from the element's spec cost table.
	workCycles int64
	// stats holds the element's live telemetry counters; ports update
	// the endpoint elements' stats on every transfer.
	stats ElemStats
	// action is the element itself when it implements SimpleAction (set
	// by Build), nil for elements that write their own transfers.
	action SimpleAction
	// pusher and puller are the element's burst transfers (set by
	// Build): derivedBatch for a SimpleAction element, otherwise the
	// element itself if it writes PushBatch or PullBatch, else noTransfer.
	pusher BatchPusher
	puller BatchPuller
	// one is the burst of one that Push and Pull run. It cannot live on
	// their stacks, because it escapes through the interface call.
	one [1]*packet.Packet
	// asleep takes a task element off the run list (Sleep, Wake).
	asleep bool
}

func (b *Base) base() *Base { return b }

// Name returns the element's configuration name.
func (b *Base) Name() string { return b.name }

// Router returns the containing router (nil before wiring).
func (b *Base) Router() *Router { return b.router }

// NInputs returns the number of wired input ports.
func (b *Base) NInputs() int { return len(b.inputs) }

// NOutputs returns the number of wired output ports.
func (b *Base) NOutputs() int { return len(b.outputs) }

// Output returns output port i.
func (b *Base) Output(i int) *OutPort { return &b.outputs[i] }

// Input returns input port i.
func (b *Base) Input(i int) *InPort { return &b.inputs[i] }

// CPU returns the simulated CPU, or nil when cost modeling is off.
func (b *Base) CPU() *simcpu.CPU { return b.cpu }

// DefaultBurst returns the router-wide batch size elements without an
// explicit per-element burst configuration should use (1 when the
// router was built without a Burst option, preserving per-packet
// semantics and the calibrated cost model).
func (b *Base) DefaultBurst() int {
	if b.router != nil && b.router.burst > 1 {
		return b.router.burst
	}
	return 1
}

// Work charges the element's per-invocation cost to the cost model.
// Hand-written PushBatch/PullBatch implementations call it once per
// handled packet; the derived transfers call it for SimpleAction
// elements.
func (b *Base) Work() {
	b.stats.addCycles(b.workCycles)
	if b.cpu != nil {
		b.cpu.Charge(b.workCycles)
	}
}

// Charge adds extra model cycles beyond the base work cost
// (data-dependent work such as classifier tree steps).
func (b *Base) Charge(cycles int64) {
	b.stats.addCycles(cycles)
	if b.cpu != nil {
		b.cpu.Charge(cycles)
	}
}

// Stats returns the element's live statistics counters.
func (b *Base) Stats() *ElemStats { return &b.stats }

// Drop records p as terminated by this element — dropped or consumed
// without forwarding — and kills it. Elements call Drop instead of a
// bare Kill at every site where a packet leaves the graph, so the
// telemetry conservation law (packets in == packets out + drops) holds
// per element.
func (b *Base) Drop(p *packet.Packet) {
	b.stats.addDrops(1)
	p.Kill()
}

// CheckedPush pushes p on an output that may not exist — an error or
// side port a configuration left unwired, a port number computed from a
// packet or a handler write, -1 for "none" — and drops p when it doesn't.
func (b *Base) CheckedPush(port int, p *packet.Packet) {
	if uint(port) < uint(len(b.outputs)) {
		b.outputs[port].Push(p)
		return
	}
	b.Drop(p)
}

// CountDrops records n packets terminated by this element at sites that
// kill through other helpers (batch tails, device rejections).
func (b *Base) CountDrops(n int) {
	if n > 0 {
		b.stats.addDrops(int64(n))
	}
}

// CountDelivered records packets handed off outside the element graph —
// a ToDevice transmit, a ToHost delivery — as element output, keeping
// sink elements conservation-balanced.
func (b *Base) CountDelivered(pkts int, bytes int64) {
	if pkts > 0 {
		b.stats.addOut(int64(pkts), bytes)
	}
}

// MemFetch charges n compulsory cache misses (§8.2 counts four per
// forwarded packet: RX descriptor, Ethernet header, IP header, TX
// descriptor reclaim). Miss latency is platform-fixed nanoseconds, so
// faster clocks do not shrink it.
func (b *Base) MemFetch(n int) {
	if b.cpu != nil {
		b.cpu.MemFetch(n)
	}
}

// Push is the scalar push transfer: it runs p through the element's
// PushBatch as a burst of one. Callers holding an Element call it;
// OutPort.PushBatch runs the same lines itself. The slot is saved and
// restored around the call, so a push cycle that re-enters this element
// (Figure 1's ICMPError -> rt loop) leaves the outer burst intact for an
// element that reads it again after pushing downstream (Tee).
func (b *Base) Push(port int, p *packet.Packet) {
	saved := b.one[0]
	b.one[0] = p
	b.pusher.PushBatch(port, b.one[:])
	b.one[0] = saved
}

// Pull is the scalar pull transfer: it asks the element's PullBatch for
// a burst of one; nil means the element had nothing. Callers holding an
// Element call it; InPort.Pull asks the same way through a slot of its
// own.
func (b *Base) Pull(port int) *packet.Packet {
	saved := b.one[0]
	var p *packet.Packet
	if b.puller.PullBatch(port, b.one[:]) > 0 {
		p = b.one[0]
	}
	b.one[0] = saved
	return p
}

// Sleep takes the element's task off the run list until Wake. A task
// calls it when it found no work and whoever brings work will wake it
// (an empty Queue wakes its consumer on the next push). With a cost
// model attached it does nothing: the model charges every idle poll.
func (b *Base) Sleep() {
	if b.cpu == nil {
		b.asleep = true
	}
}

// Wake puts the element's task back on the run list. A task woken
// during a round runs in that round if it comes later in the task table.
func (b *Base) Wake() { b.asleep = false }

// Configure is the default implementation for elements that take no
// configuration.
func (b *Base) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("%s: takes no configuration arguments", b.class)
	}
	return nil
}

// OutPort is an element output port. Push dispatches through an
// interface — the target's SimpleAction or burst transfer, Go's
// analogue of the C++ virtual call the paper measures; the cost model
// charges an indirect call through the simulated BTB. When the pushing
// element's class was devirtualized, direct is set and the model
// charges a conventional call instead; on the wall clock the port
// dispatches like any other.
type OutPort struct {
	target     Element
	targetPort int
	direct     bool
	cpu        *simcpu.CPU
	site       simcpu.SiteID
	targetID   simcpu.TargetID
	connected  bool
	// owner and peer are the stats endpoints of this edge (the pushing
	// element and the receiving element); tracer, when non-nil, records
	// each packet's arrival at peer.
	owner  *Base
	peer   *Base
	tracer *Tracer
	// one is the burst of one Push hands PushBatch, which reads it before
	// anything can push on this port again, so unlike Base's it needs no
	// restore.
	one [1]*packet.Packet
}

// Connected reports whether the port was wired.
func (p *OutPort) Connected() bool { return p.connected }

// Target returns the downstream element and port.
func (p *OutPort) Target() (Element, int) { return p.target, p.targetPort }

// Push transfers a packet downstream as a burst of one.
func (p *OutPort) Push(pkt *packet.Packet) {
	p.one[0] = pkt
	p.PushBatch(p.one[:])
}

// PushBatch transfers a burst of packets downstream. A burst of more
// than one crosses in a single (charged) dispatch. A burst of one takes
// the scalar path, which charges per hop: a SimpleAction target is run
// right here — its action is the only dynamic call of the hop — and the
// loop carries the survivor on to that element's output 0, so a chain
// of simple elements costs no stack frame per hop; any other target
// takes the packet as a burst of one, as Base.Push runs it. Push and the
// scalar path live in this one function because the scalar path nests
// every hop inside the previous one, and on a call chain that deep each
// extra frame costs a mispredicted return.
func (p *OutPort) PushBatch(pkts []*packet.Packet) {
	switch len(pkts) {
	case 0:
		return
	case 1:
	default:
		p.pushBurst(pkts)
		return
	}
	pkt := pkts[0]
	for {
		if p.cpu != nil {
			if p.direct {
				p.cpu.DirectCall()
			} else {
				p.cpu.IndirectCall(p.site, p.targetID)
			}
		}
		if p.owner != nil {
			n := int64(pkt.Len())
			p.owner.stats.addOut(1, n)
			p.peer.stats.addIn(1, n)
			if p.tracer != nil {
				p.tracer.record(pkt.ID, p.peer.name)
			}
		}
		b := p.peer
		if b.action == nil {
			break
		}
		b.Work()
		if pkt = b.action.SimpleAction(pkt); pkt == nil {
			return
		}
		p = &b.outputs[0]
	}
	// Base.Push, written out to save its frame.
	b := p.peer
	saved := b.one[0]
	b.one[0] = pkt
	b.pusher.PushBatch(p.targetPort, b.one[:])
	b.one[0] = saved
}

// InPort is an element input port; for pull inputs it references the
// upstream element from which packets are pulled.
type InPort struct {
	source     Element
	sourcePort int
	direct     bool
	cpu        *simcpu.CPU
	site       simcpu.SiteID
	targetID   simcpu.TargetID
	connected  bool
	// owner and peer are the stats endpoints of this edge (the pulling
	// element and the upstream element); tracer, when non-nil, records
	// each pulled packet's arrival at owner.
	owner  *Base
	peer   *Base
	tracer *Tracer
	// one is the burst of one Pull asks the source for. A pull cannot
	// reach its own port again before it returns, so unlike Base's it
	// needs no save and restore.
	one [1]*packet.Packet
}

// Connected reports whether the port was wired.
func (p *InPort) Connected() bool { return p.connected }

// Source returns the upstream element and port.
func (p *InPort) Source() (Element, int) { return p.source, p.sourcePort }

// Pull requests a packet from upstream.
func (p *InPort) Pull() *packet.Packet {
	if p.cpu != nil {
		if p.direct {
			p.cpu.DirectCall()
		} else {
			p.cpu.IndirectCall(p.site, p.targetID)
		}
	}
	var pkt *packet.Packet
	if p.peer.puller.PullBatch(p.sourcePort, p.one[:]) > 0 {
		pkt = p.one[0]
	}
	if pkt != nil && p.owner != nil {
		n := int64(pkt.Len())
		p.peer.stats.addOut(1, n)
		p.owner.stats.addIn(1, n)
		if p.tracer != nil {
			p.tracer.record(pkt.ID, p.owner.name)
		}
	}
	return pkt
}
