package elements

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
)

// FlowCache is an exact-match flow fast path installed in front of the
// full modular pipeline (the opt.InstallFlowCache pass does the graph
// surgery). The first packet of a flow takes the slow path — the
// unmodified element chain — while the cache records the *net effect*
// the pipeline had on it: which egress queue it reached and how its
// bytes changed (rewritten Ethernet header, decremented TTL). Once the
// recording is verified, subsequent packets of the flow skip the
// pipeline entirely: the cache applies the recorded transformation and
// pushes the packet straight at the egress queue.
//
// Port layout for FlowCache(M, E): inputs 0..M-1 are ingress ports (one
// per device feed, each owning a private shard); output i
// mirrors ingress i into the slow path ("miss" output). Inputs
// M..M+E-1 are record taps spliced into every edge that enters an
// egress queue; output M+j passes tap traffic through to the queue and
// doubles as the fast-path output for flows recorded at that tap.
//
// Correctness rests on three mechanisms rather than on trusting the
// recording:
//
//   - Replay verification: a recording is only installed if re-applying
//     the candidate transformation to a copy of the ingress packet
//     reproduces the observed egress bytes exactly, and if exactly one
//     packet crossed a record tap during the traversal — so the
//     pipeline emitted nothing on the flow's behalf beyond the packet
//     itself. Flows the pipeline duplicates (Tee), consumes (ToHost,
//     ARP hold), fragments, rewrites in unsupported ways, or answers
//     with side traffic (ICMP redirects, ARP queries) fail verification
//     and are pinned to the slow path as uncacheable.
//   - Guards: every entry snapshots the router's guard generations
//     (core.GuardRoute/GuardARP/GuardConfig). Any write handler or
//     learned-state update that touches guarded state bumps a
//     generation; a hit whose snapshot mismatches is discarded and the
//     packet re-records against the new state, so the fast path is
//     never stale.
//   - Conservative hit criteria: the 32-byte key covers every header
//     field the repo's configurations classify on (Ethernet addresses
//     and type, IP version/IHL, TOS, fragment field, TTL, protocol,
//     addresses, transport ports), and a hit additionally requires a
//     valid IP checksum, no link padding, and a length between the
//     extremes already verified for the flow.
//
// FlowCache charges zero model cycles (no Work or Charge calls): the
// fast path's win in the cost model comes from the element work it
// bypasses, and an uninstalled FlowCache leaves the calibrated Figure
// 8/9 numbers untouched.
type FlowCache struct {
	core.Base
	nIngress int
	nEgress  int
	shards   []flowShard

	// Counters are atomic: read handlers sample them live.
	Hits        int64
	Misses      int64
	Uncacheable int64
	Invalidated int64
	SwapDemoted int64

	// tapArrivals counts every packet crossing any record tap. A
	// recording is only trusted when exactly one tap traversal happened
	// during the slow-path push — the marked packet itself — proving
	// the pipeline emitted nothing else (no ICMP redirect, no ARP
	// query) on the flow's behalf.
	tapArrivals int64
}

// flowCacheMaxEntries bounds each ingress shard's table; flows beyond
// the cap stay on the slow path rather than evicting warm entries.
const flowCacheMaxEntries = 8192

// flowShard is the per-ingress cache state.
type flowShard struct {
	entries map[flowKey]*flowEntry
	pending *flowPending // active recording, non-nil only inside a slow-path push
}

// flowKey packs the invariant header fields of a flow: Ethernet
// destination, source, and type; IP version/IHL, TOS, fragment field,
// TTL, protocol, source, and destination; and the transport ports for
// unfragmented TCP/UDP. Mutable per-packet fields (total length, ID,
// checksum) and payload are deliberately excluded.
type flowKey [32]byte

// flowEntry states.
const (
	flowVerified    = iota // recording replay-verified; fast path eligible
	flowUncacheable        // pipeline effect not representable; pinned to slow path
	flowSwapped            // transplanted across a hot-swap; must re-record
)

// flowEntry is one recorded flow transformation.
type flowEntry struct {
	state    int
	out      int      // fast-path output port (egress tap index)
	ether    [14]byte // rewritten Ethernet header at egress
	ttlDelta uint8    // TTL decrements applied along the path
	minLen   int      // smallest replay-verified packet length
	maxLen   int      // largest replay-verified packet length
	gens     core.GuardSnapshot
	hits     int64
}

// flowPending tracks one in-progress recording. It is reachable both
// from the shard and from the packet's FlowPending annotation; the
// record taps write to it strictly within the synchronous slow-path
// push that created it, so no synchronization is needed.
type flowPending struct {
	owner    *FlowCache
	key      flowKey
	inCopy   []byte
	gens     core.GuardSnapshot
	arrivals int
	out      int
	egress   []byte
}

// Configure accepts "NINGRESS, NEGRESS".
func (e *FlowCache) Configure(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("FlowCache: expects NINGRESS, NEGRESS")
	}
	m, err := strconv.Atoi(args[0])
	if err != nil || m < 1 {
		return fmt.Errorf("FlowCache: bad ingress count %q", args[0])
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 0 {
		return fmt.Errorf("FlowCache: bad egress count %q", args[1])
	}
	e.nIngress, e.nEgress = m, n
	e.shards = make([]flowShard, m)
	for i := range e.shards {
		e.shards[i].entries = map[flowKey]*flowEntry{}
	}
	return nil
}

// extractKey builds the flow key for an Ethernet frame, or reports the
// packet unkeyable (non-IP, options, or a truncated transport header).
func extractKey(d []byte) (flowKey, bool) {
	var k flowKey
	if len(d) < 34 || d[12] != 0x08 || d[13] != 0x00 || d[14] != 0x45 {
		return k, false
	}
	copy(k[0:14], d[0:14])   // ether dst, src, type
	k[14] = d[14]            // version/IHL
	k[15] = d[15]            // TOS
	copy(k[16:18], d[20:22]) // flags + fragment offset
	k[18] = d[22]            // TTL
	k[19] = d[23]            // protocol
	copy(k[20:28], d[26:34]) // src, dst addresses
	proto := d[23]
	unfragmented := d[20]&0x1f == 0 && d[21] == 0
	if (proto == packet.IPProtoTCP || proto == packet.IPProtoUDP) && unfragmented {
		if len(d) < 38 {
			return k, false
		}
		copy(k[28:32], d[34:38])
	}
	return k, true
}

// fastEligible applies the per-packet hit criteria that the key cannot
// carry: an intact, unpadded IP packet within the length range already
// verified for this flow.
func fastEligible(d []byte, ent *flowEntry) bool {
	if len(d) < ent.minLen || len(d) > ent.maxLen {
		return false
	}
	totalLen := int(d[16])<<8 | int(d[17])
	if totalLen != len(d)-14 {
		return false
	}
	return packet.IP4Header(d[14:34]).ChecksumOK()
}

// applyTransform applies a recorded transformation to raw frame bytes:
// the egress Ethernet header replaces the ingress one and the TTL is
// decremented with the same RFC 1141 incremental checksum update
// DecIPTTL uses. Replay verification and the hit path share this code,
// so a verified entry reproduces the pipeline's bytes by construction.
func applyTransform(d []byte, ether *[14]byte, ttlDelta uint8) {
	copy(d[0:14], ether[:])
	h := packet.IP4Header(d[14:34])
	for i := uint8(0); i < ttlDelta; i++ {
		h.DecTTLIncremental()
	}
}

// PushBatch handles ingress traffic (ports 0..M-1) and record taps
// (ports M..M+E-1) one packet at a time, in order: a recording must see
// the slow path's effect before the next packet consults the cache.
func (e *FlowCache) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.push(port, p)
	}
}

// push handles one packet.
func (e *FlowCache) push(port int, p *packet.Packet) {
	if port >= e.nIngress {
		e.tap(port, p)
		return
	}
	sh := &e.shards[port]
	d := p.Data()
	key, keyable := extractKey(d)
	if !keyable {
		e.Output(port).Push(p)
		return
	}
	if ent := sh.entries[key]; ent != nil {
		if ent.gens == e.GuardSnapshot() {
			switch ent.state {
			case flowVerified:
				if fastEligible(d, ent) {
					atomic.AddInt64(&e.Hits, 1)
					ent.hits++
					p.Uniqueify()
					applyTransform(p.Data(), &ent.ether, ent.ttlDelta)
					e.Output(ent.out).Push(p)
					return
				}
				// Outside the verified envelope (new length extreme,
				// bad checksum, padding): take the slow path and widen
				// the envelope if the replay verifies again.
			case flowUncacheable:
				// Negative entry: known slow-path flow, skip recording.
				atomic.AddInt64(&e.Misses, 1)
				e.Output(port).Push(p)
				return
			case flowSwapped:
				// Transplanted across a hot-swap: re-record below.
			}
		} else {
			// Guarded state changed since the recording: discard and
			// re-record against the new state.
			atomic.AddInt64(&e.Invalidated, 1)
			delete(sh.entries, key)
		}
	}
	atomic.AddInt64(&e.Misses, 1)
	if sh.pending != nil || len(sh.entries) >= flowCacheMaxEntries {
		// Already recording (a looped topology re-entered the ingress)
		// or the shard is full: plain slow path.
		e.Output(port).Push(p)
		return
	}
	// Record this slow-path traversal. The guard snapshot is taken
	// before the traversal so a concurrent mutation during it leaves
	// the entry stale-marked rather than trusted.
	fp := &flowPending{
		owner:  e,
		key:    key,
		inCopy: append([]byte(nil), d...),
		gens:   e.GuardSnapshot(),
		out:    -1,
	}
	sh.pending = fp
	p.Anno.FlowPending = fp
	before := atomic.LoadInt64(&e.tapArrivals)
	e.Output(port).Push(p)
	emitted := atomic.LoadInt64(&e.tapArrivals) - before
	sh.pending = nil
	e.finishRecording(sh, fp, emitted)
}

// tap passes egress-bound traffic through to its queue, recording the
// arrival if the packet carries this cache's active recording mark.
func (e *FlowCache) tap(port int, p *packet.Packet) {
	atomic.AddInt64(&e.tapArrivals, 1)
	if fp, ok := p.Anno.FlowPending.(*flowPending); ok {
		p.Anno.FlowPending = nil
		if fp.owner == e {
			fp.arrivals++
			if fp.arrivals == 1 {
				fp.out = port
				fp.egress = append([]byte(nil), p.Data()...)
			}
		}
	}
	e.Output(port).Push(p)
}

// finishRecording inspects what the slow path did with the recorded
// packet and installs a verified entry, or a negative one when the
// effect is not representable. `emitted` is the total number of tap
// traversals observed during the slow-path push: it must be exactly one
// (the marked packet), or the pipeline generated side traffic — an ICMP
// redirect, an ARP query — that a fast-path replay would silently drop.
func (e *FlowCache) finishRecording(sh *flowShard, fp *flowPending, emitted int64) {
	ent := &flowEntry{state: flowUncacheable, gens: fp.gens}
	if fp.arrivals == 1 && emitted == 1 && e.deriveTransform(fp, ent) {
		ent.state = flowVerified
		ent.out = fp.out
		ent.minLen = len(fp.inCopy)
		ent.maxLen = len(fp.inCopy)
	} else {
		atomic.AddInt64(&e.Uncacheable, 1)
	}
	if old := sh.entries[fp.key]; old != nil && old.state == flowVerified && ent.state == flowVerified {
		// Widening an existing entry's length envelope.
		if old.minLen < ent.minLen {
			ent.minLen = old.minLen
		}
		if old.maxLen > ent.maxLen {
			ent.maxLen = old.maxLen
		}
		ent.hits = old.hits
	}
	sh.entries[fp.key] = ent
}

// deriveTransform extracts the candidate transformation from a recorded
// ingress/egress pair and replay-verifies it byte for byte.
func (e *FlowCache) deriveTransform(fp *flowPending, ent *flowEntry) bool {
	in, eg := fp.inCopy, fp.egress
	if len(eg) != len(in) || len(in) < 34 {
		return false
	}
	if eg[22] > in[22] {
		return false // TTL increased: not a decrement we can replay
	}
	copy(ent.ether[:], eg[0:14])
	ent.ttlDelta = in[22] - eg[22]
	cand := append([]byte(nil), in...)
	applyTransform(cand, &ent.ether, ent.ttlDelta)
	for i := range cand {
		if cand[i] != eg[i] {
			return false
		}
	}
	return true
}

// Entries returns the live entry count across all shards.
func (e *FlowCache) Entries() int {
	n := 0
	for i := range e.shards {
		n += len(e.shards[i].entries)
	}
	return n
}

// Flush drops every cache entry (the "flush" write handler).
func (e *FlowCache) Flush() {
	for i := range e.shards {
		e.shards[i].entries = map[flowKey]*flowEntry{}
	}
}

// Handlers exports cache statistics and a flush control.
func (e *FlowCache) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("hits", func() int64 { return atomic.LoadInt64(&e.Hits) }),
		intHandler("misses", func() int64 { return atomic.LoadInt64(&e.Misses) }),
		intHandler("uncacheable", func() int64 { return atomic.LoadInt64(&e.Uncacheable) }),
		intHandler("invalidated", func() int64 { return atomic.LoadInt64(&e.Invalidated) }),
		intHandler("swap_demoted", func() int64 { return atomic.LoadInt64(&e.SwapDemoted) }),
		intHandler("entries", func() int64 { return int64(e.Entries()) }),
		{Name: "flush", Write: func(string) error { e.Flush(); return nil }},
	}
}

// FlowCacheState is a FlowCache's transferable state: the per-shard
// entry tables and the accumulated counters. Transplanted entries are
// demoted to flowSwapped — the replacement configuration may transform
// flows differently, so each flow re-verifies with one slow-path
// traversal before its fast path re-arms; SwapDemoted counts them as
// the deliberate, attributed cost of the swap. Guard generations
// travel at the router level (core.Hotswap copies them before element
// state moves), so the demoted entries' snapshots stay comparable.
type FlowCacheState struct {
	NIngress int
	NEgress  int
	Shards   []map[flowKey]*flowEntry

	Hits        int64
	Misses      int64
	Uncacheable int64
	Invalidated int64
	SwapDemoted int64
}

// SaveState hands the entry tables over, leaving the old element empty.
func (e *FlowCache) SaveState() interface{} {
	st := &FlowCacheState{
		NIngress:    e.nIngress,
		NEgress:     e.nEgress,
		Shards:      make([]map[flowKey]*flowEntry, len(e.shards)),
		Hits:        atomic.LoadInt64(&e.Hits),
		Misses:      atomic.LoadInt64(&e.Misses),
		Uncacheable: atomic.LoadInt64(&e.Uncacheable),
		Invalidated: atomic.LoadInt64(&e.Invalidated),
		SwapDemoted: atomic.LoadInt64(&e.SwapDemoted),
	}
	for i := range e.shards {
		st.Shards[i] = e.shards[i].entries
		e.shards[i].entries = map[flowKey]*flowEntry{}
	}
	return st
}

// RestoreState adopts the counters and entry tables, demoting every
// transplanted entry. A replacement whose port shape differs flushes
// instead (the entries' output indices would be meaningless), counting
// the flushed entries as demotions so the cost stays attributed.
func (e *FlowCache) RestoreState(state interface{}) error {
	st, ok := state.(*FlowCacheState)
	if !ok {
		return fmt.Errorf("FlowCache: foreign state %T", state)
	}
	atomic.StoreInt64(&e.Hits, st.Hits)
	atomic.StoreInt64(&e.Misses, st.Misses)
	atomic.StoreInt64(&e.Uncacheable, st.Uncacheable)
	atomic.StoreInt64(&e.Invalidated, st.Invalidated)
	atomic.StoreInt64(&e.SwapDemoted, st.SwapDemoted)
	demoted := int64(0)
	if st.NIngress != e.nIngress || st.NEgress != e.nEgress {
		for _, sh := range st.Shards {
			demoted += int64(len(sh))
		}
		atomic.AddInt64(&e.SwapDemoted, demoted)
		return nil
	}
	for i := range e.shards {
		for k, ent := range st.Shards[i] {
			ent.state = flowSwapped
			e.shards[i].entries[k] = ent
			demoted++
		}
	}
	atomic.AddInt64(&e.SwapDemoted, demoted)
	return nil
}
