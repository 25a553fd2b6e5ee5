package core

import "repro/internal/packet"

// The batch transfer path amortizes inter-element dispatch over several
// packets, the modern analogue of the paper's transfer-cost
// optimizations: where click-devirtualize removes the indirection of
// one virtual call, batching removes all but one of N of them. Every
// SimpleAction element takes batches through the transfers derived
// below; an element that writes its own Push or Pull takes them only if
// it also writes PushBatch or PullBatch, and otherwise receives a batch
// one packet at a time through the scalar path, so the two kinds mix
// freely in one configuration.

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

// derivedBatch is the BatchPusher and BatchPuller Build binds to the
// ports facing a SimpleAction element.
type derivedBatch struct{ b *Base }

// PushBatch runs the action over the batch, compacting survivors in
// place, and forwards them as one batch on output 0; packets the action
// disposes of leave on its scalar paths as they are found.
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
// compacting survivors. Like the derived Pull it returns 0 only when
// upstream delivered nothing.
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

// PushBatch transfers a batch of packets downstream. When the target
// takes batches (a SimpleAction element, or one that writes PushBatch),
// the whole batch crosses in a single (charged) dispatch; otherwise
// each packet takes the scalar Push path, with its usual per-packet
// dispatch charge.
func (p *OutPort) PushBatch(pkts []*packet.Packet) {
	switch {
	case len(pkts) == 0:
		return
	case len(pkts) == 1:
		p.Push(pkts[0])
		return
	case p.batch == nil:
		for _, pk := range pkts {
			p.Push(pk)
		}
		return
	}
	if p.cpu != nil {
		if p.direct != nil {
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
	p.batch.PushBatch(p.targetPort, pkts)
}

// PullBatch requests up to len(buf) packets from upstream, returning
// the number delivered. When the source hands out batches (a
// SimpleAction element, or one that writes PullBatch) the batch crosses
// in a single (charged) dispatch; otherwise packets are pulled one at a
// time through the scalar path.
func (p *InPort) PullBatch(buf []*packet.Packet) int {
	if len(buf) == 0 {
		return 0
	}
	if p.batch == nil {
		n := 0
		for n < len(buf) {
			pk := p.Pull()
			if pk == nil {
				break
			}
			buf[n] = pk
			n++
		}
		return n
	}
	if p.cpu != nil {
		if p.direct != nil {
			p.cpu.DirectCall()
		} else {
			p.cpu.IndirectCall(p.site, p.targetID)
		}
	}
	n := p.batch.PullBatch(p.sourcePort, buf)
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
