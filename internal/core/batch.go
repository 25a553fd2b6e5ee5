package core

import (
	"fmt"

	"repro/internal/packet"
)

// The batch transfer path amortizes inter-element dispatch over several
// packets, the modern analogue of the paper's transfer-cost
// optimizations: where click-devirtualize removes the indirection of
// one virtual call, batching removes all but one of N of them. A burst
// is the only transfer an element implements: SimpleAction elements
// take theirs through the transfers derived below, every other element
// writes PushBatch for its push inputs and PullBatch for its pull
// outputs, and a scalar Push or Pull is a burst of one (Base.Push,
// Base.Pull).

// BatchPusher is implemented by elements whose push inputs accept a
// batch of packets in one call. The callee takes ownership of the
// packets but not of the slice: it may reorder or overwrite the slice
// contents while the call runs (e.g. to compact survivors in place),
// but must not retain the slice, which the caller may refill
// immediately after PushBatch returns.
type BatchPusher interface {
	PushBatch(port int, ps []*packet.Packet)
}

// BatchPuller is implemented by elements whose pull outputs can hand
// over several packets in one call. PullBatch fills buf with up to
// len(buf) packets and returns how many it delivered.
type BatchPuller interface {
	PullBatch(port int, buf []*packet.Packet) int
}

// noTransfer is the burst transfer of a direction an element has no
// ports of: a packet that arrives there panics, naming the element.
type noTransfer struct{ b *Base }

func (n noTransfer) PushBatch(int, []*packet.Packet) {
	panic(fmt.Sprintf("element %q (%s): Push on non-push element", n.b.name, n.b.class))
}

func (n noTransfer) PullBatch(int, []*packet.Packet) int {
	panic(fmt.Sprintf("element %q (%s): Pull on non-pull element", n.b.name, n.b.class))
}

// derivedBatch is the BatchPusher and BatchPuller of a SimpleAction
// element.
type derivedBatch struct{ b *Base }

// PushBatch runs the action over the batch, compacting survivors in
// place, and forwards them as one batch on output 0; packets the action
// disposes of are dropped or pushed to a secondary output as they are
// found.
func (d derivedBatch) PushBatch(port int, ps []*packet.Packet) {
	b, k := d.b, 0
	for _, p := range ps {
		b.Work()
		if p = b.action.SimpleAction(p); p != nil {
			ps[k] = p
			k++
		}
	}
	if k > 0 {
		b.outputs[0].PushBatch(ps[:k])
	}
}

// PullBatch pulls a batch from input 0 and runs the action over it,
// compacting survivors, charging Work only for packets upstream
// delivered. A batch the action disposes of entirely is followed by
// another pull, so 0 still means upstream had nothing — the meaning
// tasks rely on to stop.
func (d derivedBatch) PullBatch(port int, buf []*packet.Packet) int {
	b := d.b
	for {
		n, k := b.inputs[0].PullBatch(buf), 0
		for _, p := range buf[:n] {
			b.Work()
			if p = b.action.SimpleAction(p); p != nil {
				buf[k] = p
				k++
			}
		}
		if k > 0 || n == 0 {
			return k
		}
	}
}

// pushBurst is OutPort.PushBatch for more than one packet.
func (p *OutPort) pushBurst(pkts []*packet.Packet) {
	if p.cpu != nil {
		if p.direct {
			p.cpu.DirectCall()
		} else {
			p.cpu.IndirectCall(p.site, p.targetID)
		}
		p.cpu.BatchTransfer(len(pkts))
	}
	if p.owner != nil {
		var bytes int64
		for _, pk := range pkts {
			bytes += int64(pk.Len())
			if p.tracer != nil {
				p.tracer.record(pk.ID, p.peer.name)
			}
		}
		n := int64(len(pkts))
		p.owner.stats.addOut(n, bytes)
		p.peer.stats.addIn(n, bytes)
	}
	p.peer.pusher.PushBatch(p.targetPort, pkts)
}

// PullBatch requests up to len(buf) packets from upstream in a single
// (charged) dispatch, returning the number delivered. A batch of one
// takes the scalar path, as in PushBatch.
func (p *InPort) PullBatch(buf []*packet.Packet) int {
	switch len(buf) {
	case 0:
		return 0
	case 1:
		if buf[0] = p.Pull(); buf[0] == nil {
			return 0
		}
		return 1
	}
	if p.cpu != nil {
		if p.direct {
			p.cpu.DirectCall()
		} else {
			p.cpu.IndirectCall(p.site, p.targetID)
		}
	}
	n := p.peer.puller.PullBatch(p.sourcePort, buf)
	if p.cpu != nil && n > 0 {
		p.cpu.BatchTransfer(n)
	}
	if n > 0 && p.owner != nil {
		var bytes int64
		for _, pk := range buf[:n] {
			bytes += int64(pk.Len())
			if p.tracer != nil {
				p.tracer.record(pk.ID, p.owner.name)
			}
		}
		p.peer.stats.addOut(int64(n), bytes)
		p.owner.stats.addIn(int64(n), bytes)
	}
	return n
}
