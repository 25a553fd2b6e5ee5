package core

import "sync/atomic"

// Guard generations. A flow fast path caches the *net effect* of the
// slow path, which is only valid while the state the slow path consulted
// stays put. Rather than tracking fine-grained dependencies, the runtime
// keeps one generation counter per class of guarded state; every write
// handler (and learned-state update) that mutates such state bumps its
// class counter, and cached entries snapshot the full vector when they
// are installed. A hit compares snapshots: any mismatch sends the packet
// back down the slow path, which re-records against the new state. Bumps
// are cheap (one atomic add) and only coarse-grained correctness matters
// — a spurious invalidation costs one slow-path traversal, a missed one
// would forward stale packets.

// GuardClass names one class of guarded router state.
type GuardClass int

const (
	// GuardRoute covers routing tables (LookupIPRoute and friends).
	GuardRoute GuardClass = iota
	// GuardARP covers link-level address resolution state (ARP tables).
	GuardARP
	// GuardConfig covers element configuration changed through write
	// handlers: Queue capacities, RED thresholds, Switch ports.
	GuardConfig

	numGuardClasses
)

// GuardSnapshot is a point-in-time copy of every guard generation,
// comparable with ==.
type GuardSnapshot [numGuardClasses]uint64

// Generations holds the per-class guard counters for one router.
// Counters are atomic so a driver may bump or snapshot them from a
// goroutine other than the run loop's.
type Generations struct {
	v [numGuardClasses]atomic.Uint64
}

// Bump advances the given class counter, invalidating every cache entry
// whose snapshot predates the bump.
func (g *Generations) Bump(c GuardClass) {
	if g == nil {
		return
	}
	g.v[c].Add(1)
}

// Load returns the current generation of one class.
func (g *Generations) Load(c GuardClass) uint64 {
	if g == nil {
		return 0
	}
	return g.v[c].Load()
}

// Snapshot copies the full generation vector.
func (g *Generations) Snapshot() GuardSnapshot {
	var s GuardSnapshot
	if g == nil {
		return s
	}
	for i := range s {
		s[i] = g.v[i].Load()
	}
	return s
}

// CopyFrom adopts another router's generation values. Hot-swap uses this
// so that cache entries transplanted alongside keep meaningful
// snapshots: the new router continues the old router's counter history
// instead of restarting at zero (which could spuriously *validate* stale
// entries if the old counters happened to be zero too — adopting the
// values is both correct and cheap).
func (g *Generations) CopyFrom(o *Generations) {
	if g == nil || o == nil {
		return
	}
	for i := range g.v {
		g.v[i].Store(o.v[i].Load())
	}
}

// Guards returns the router's guard generation counters.
func (rt *Router) Guards() *Generations { return rt.guards }

// BumpGuard bumps a guard class on the element's router. Elements call
// this from write handlers and learned-state updates; it is nil-safe so
// directly constructed elements (unit tests) need no router.
func (b *Base) BumpGuard(c GuardClass) {
	if b.router == nil {
		return
	}
	b.router.guards.Bump(c)
}

// GuardSnapshot returns the current guard vector of the element's
// router (zero when unwired).
func (b *Base) GuardSnapshot() GuardSnapshot {
	if b.router == nil {
		return GuardSnapshot{}
	}
	return b.router.guards.Snapshot()
}
