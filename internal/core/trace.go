package core

import "sync"

// Per-packet path tracing — a debugging facility for the optimizer
// passes: after click-xform rewrites a subgraph or click-devirtualize
// swaps in specialized classes, a trace shows the element sequence each
// packet actually traversed, so a misrouted transformation is visible
// immediately. Tracing is off by default and must be enabled with
// Router.EnableTracing before the run; the per-transfer cost when off
// is a single nil check.

// TraceRecord is one hop: packet ID and the element that received it.
type TraceRecord struct {
	Packet  uint64 `json:"packet"`
	Element string `json:"element"`
}

// Tracer is a fixed-capacity ring buffer of trace records. Recording is
// mutex-guarded so Records can be read while the router runs; the ring
// bounds memory no matter how long the run.
type Tracer struct {
	mu   sync.Mutex
	recs []TraceRecord
	next int
	full bool
}

// NewTracer returns a tracer keeping the last capacity records.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{recs: make([]TraceRecord, capacity)}
}

func (t *Tracer) record(pkt uint64, elem string) {
	t.mu.Lock()
	t.recs[t.next] = TraceRecord{Packet: pkt, Element: elem}
	t.next++
	if t.next == len(t.recs) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Records returns the retained records, oldest first.
func (t *Tracer) Records() []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]TraceRecord(nil), t.recs[:t.next]...)
	}
	out := make([]TraceRecord, 0, len(t.recs))
	out = append(out, t.recs[t.next:]...)
	out = append(out, t.recs[:t.next]...)
	return out
}

// Paths groups the retained records by packet ID: the element sequence
// each packet traversed, in arrival order. Clones share their parent's
// ID, so a Tee'd packet's path covers both branches.
func (t *Tracer) Paths() map[uint64][]string {
	paths := map[uint64][]string{}
	for _, r := range t.Records() {
		paths[r.Packet] = append(paths[r.Packet], r.Element)
	}
	return paths
}

// EnableTracing attaches a fresh ring-buffered tracer (keeping the last
// capacity hops) to every wired port and returns it. Call before
// running the router.
func (rt *Router) EnableTracing(capacity int) *Tracer {
	tr := NewTracer(capacity)
	for _, e := range rt.elements {
		if e == nil {
			continue // removed by an incremental tenant delete
		}
		b := e.base()
		for i := range b.outputs {
			b.outputs[i].tracer = tr
		}
		for i := range b.inputs {
			b.inputs[i].tracer = tr
		}
	}
	rt.tracer = tr
	return tr
}

// Tracer returns the tracer installed by EnableTracing, or nil.
func (rt *Router) Tracer() *Tracer { return rt.tracer }
