package elements

import (
	"fmt"
	"sync/atomic"

	"repro/internal/packet"
)

// StateCarrier implementations (core.StateCarrier): the per-element
// state that survives a configuration hot-swap, mirroring Click's
// Element::take_state. SaveState transfers ownership of any packets in
// the returned state; RestoreState adopts them. Both run between
// scheduler rounds under the element's own guard, and — like Click's
// take_state — a transplanted runtime setting wins over the
// replacement's configured value (the operator's live "write switch 2"
// outlives a swap). Routes are the exception: LookupIPRoute carries its
// counters but routes by the replacement's configured table, so a route
// added through its "add" handler does not survive a swap.

// QueueState is a Queue's transferable state: the queued packets in
// FIFO order plus the accumulated counters.
type QueueState struct {
	Packets   []*packet.Packet
	Drops     int64
	Enqueued  int64
	HighWater int64
}

// SaveState drains the queue and hands its packets and counters over.
func (e *Queue) SaveState() interface{} {
	e.structMu.Lock()
	defer e.structMu.Unlock()
	return &QueueState{
		Packets:   e.drain(),
		Drops:     atomic.LoadInt64(&e.Drops),
		Enqueued:  atomic.LoadInt64(&e.Enqueued),
		HighWater: atomic.LoadInt64(&e.HighWater),
	}
}

// RestoreState adopts a drained queue's packets and counters. The new
// queue's own capacity governs: packets beyond it are tail-dropped and
// counted, exactly as if they had arrived after a shrink. Packets that
// arrive wake the queue's consumer like a push.
func (e *Queue) RestoreState(state interface{}) error {
	st, ok := state.(*QueueState)
	if !ok {
		return fmt.Errorf("Queue: foreign state %T", state)
	}
	e.structMu.Lock()
	defer e.structMu.Unlock()
	atomic.StoreInt64(&e.Drops, st.Drops)
	atomic.StoreInt64(&e.Enqueued, st.Enqueued)
	atomic.StoreInt64(&e.HighWater, st.HighWater)
	next := newPktRing(e.Capacity())
	kept := e.fill(next, st.Packets)
	e.ring.Store(next)
	if int64(kept) > atomic.LoadInt64(&e.HighWater) {
		atomic.StoreInt64(&e.HighWater, int64(kept))
	}
	if kept > 0 && e.consumer != nil {
		e.consumer.Wake()
	}
	return nil
}

// REDState is a RED element's transferable state: its drop count and
// the position in its deterministic random sequence (so a swap does not
// replay the same drop decisions).
type REDState struct {
	Drops int64
	Seed  uint64
}

// SaveState hands over the drop counter and PRNG position.
func (e *RED) SaveState() interface{} {
	return &REDState{Drops: atomic.LoadInt64(&e.Drops), Seed: e.seed}
}

// RestoreState adopts them.
func (e *RED) RestoreState(state interface{}) error {
	st, ok := state.(*REDState)
	if !ok {
		return fmt.Errorf("RED: foreign state %T", state)
	}
	atomic.StoreInt64(&e.Drops, st.Drops)
	e.seed = st.Seed
	return nil
}

// ARPState is an ARPQuerier's transferable state: the learned
// IP-to-Ethernet table, the packets held awaiting responses, and the
// protocol counters.
type ARPState struct {
	Table     map[packet.IP4]packet.EtherAddr
	Held      map[packet.IP4]*packet.Packet
	Queries   int64
	Responses int64
	Drops     int64
}

// SaveState hands the table and held packets over, leaving the old
// element with empty maps.
func (e *ARPQuerier) SaveState() interface{} {
	st := &ARPState{
		Table:     e.tbl,
		Held:      e.wait,
		Queries:   atomic.LoadInt64(&e.Queries),
		Responses: atomic.LoadInt64(&e.Responses),
		Drops:     atomic.LoadInt64(&e.Drops),
	}
	e.tbl = map[packet.IP4]packet.EtherAddr{}
	e.wait = map[packet.IP4]*packet.Packet{}
	return st
}

// RestoreState merges the transplanted table over any entries the new
// element already learned (transplanted mappings are older, but a
// freshly built element has none, so in practice it adopts the table
// wholesale) and re-holds the in-flight packets.
func (e *ARPQuerier) RestoreState(state interface{}) error {
	st, ok := state.(*ARPState)
	if !ok {
		return fmt.Errorf("ARPQuerier: foreign state %T", state)
	}
	for ip, eth := range st.Table {
		e.tbl[ip] = eth
	}
	var evicted []*packet.Packet
	for ip, p := range st.Held {
		if old := e.wait[ip]; old != nil {
			evicted = append(evicted, old)
		}
		e.wait[ip] = p
	}
	atomic.StoreInt64(&e.Queries, st.Queries)
	atomic.StoreInt64(&e.Responses, st.Responses)
	atomic.StoreInt64(&e.Drops, st.Drops)
	for _, p := range evicted {
		atomic.AddInt64(&e.Drops, 1)
		e.Drop(p)
	}
	return nil
}

// CounterState is a Counter's transferable state.
type CounterState struct {
	Packets int64
	Bytes   int64
}

// SaveState hands the counts over.
func (e *Counter) SaveState() interface{} {
	return &CounterState{
		Packets: atomic.LoadInt64(&e.Packets),
		Bytes:   atomic.LoadInt64(&e.Bytes),
	}
}

// RestoreState adopts the counts.
func (e *Counter) RestoreState(state interface{}) error {
	st, ok := state.(*CounterState)
	if !ok {
		return fmt.Errorf("Counter: foreign state %T", state)
	}
	atomic.StoreInt64(&e.Packets, st.Packets)
	atomic.StoreInt64(&e.Bytes, st.Bytes)
	return nil
}

// DiscardState is a Discard's transferable state.
type DiscardState struct{ Count int64 }

// SaveState hands the count over.
func (e *Discard) SaveState() interface{} {
	return &DiscardState{Count: atomic.LoadInt64(&e.Count)}
}

// RestoreState adopts the count.
func (e *Discard) RestoreState(state interface{}) error {
	st, ok := state.(*DiscardState)
	if !ok {
		return fmt.Errorf("Discard: foreign state %T", state)
	}
	atomic.StoreInt64(&e.Count, st.Count)
	return nil
}

// SwitchState is a Switch's transferable state: its live port setting.
type SwitchState struct{ Port int }

// SaveState hands the live port over.
func (e *Switch) SaveState() interface{} { return &SwitchState{Port: e.port} }

// RestoreState adopts it (Click's Switch::take_state likewise lets the
// old router's live setting override the new configuration).
func (e *Switch) RestoreState(state interface{}) error {
	st, ok := state.(*SwitchState)
	if !ok {
		return fmt.Errorf("Switch: foreign state %T", state)
	}
	e.port = st.Port
	return nil
}

// InfiniteSourceState is an InfiniteSource's transferable state: its
// emission progress. Without it a hot-swap would restart every bounded
// source in the router — in the multi-tenant plane, where one tenant's
// swap reinstalls the whole combined configuration, that would make
// other tenants' sources visibly re-emit, breaking swap independence.
type InfiniteSourceState struct{ Emitted int64 }

// SaveState hands the emission count over.
func (e *InfiniteSource) SaveState() interface{} {
	return &InfiniteSourceState{Emitted: e.Emitted}
}

// RestoreState adopts it; the replacement's configured limit still
// governs, so a source already past the new limit simply stays quiet.
func (e *InfiniteSource) RestoreState(state interface{}) error {
	st, ok := state.(*InfiniteSourceState)
	if !ok {
		return fmt.Errorf("InfiniteSource: foreign state %T", state)
	}
	e.Emitted = st.Emitted
	return nil
}

// PaintState is a Paint element's transferable state: its live color.
type PaintState struct{ Color byte }

// SaveState hands the color over.
func (e *Paint) SaveState() interface{} { return &PaintState{Color: e.color} }

// RestoreState adopts it.
func (e *Paint) RestoreState(state interface{}) error {
	st, ok := state.(*PaintState)
	if !ok {
		return fmt.Errorf("Paint: foreign state %T", state)
	}
	e.color = st.Color
	return nil
}

// LookupIPRouteState is a LookupIPRoute's transferable state: its
// counters. The route table stays the replacement's own.
type LookupIPRouteState struct{ NoRoute, Lookups int64 }

// SaveState hands the counters over.
func (e *LookupIPRoute) SaveState() interface{} {
	return &LookupIPRouteState{
		NoRoute: atomic.LoadInt64(&e.NoRoute),
		Lookups: atomic.LoadInt64(&e.Lookups),
	}
}

// RestoreState adopts them.
func (e *LookupIPRoute) RestoreState(state interface{}) error {
	st, ok := state.(*LookupIPRouteState)
	if !ok {
		return fmt.Errorf("LookupIPRoute: foreign state %T", state)
	}
	atomic.StoreInt64(&e.NoRoute, st.NoRoute)
	atomic.StoreInt64(&e.Lookups, st.Lookups)
	return nil
}
