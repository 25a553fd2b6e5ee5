package core

import (
	"fmt"
	"reflect"
)

// Live configuration replacement. Click installs a new configuration by
// building the new router beside the running one and switching over at
// a scheduling boundary; elements that hold packets or learned state
// hand it across so the swap is invisible on the wire. Configurations
// themselves stay static (§5.1) — hot-swap replaces the whole router,
// it never edits a live one.

// StateCarrier is implemented by elements whose runtime state should
// survive a configuration hot-swap: queue contents, learned ARP tables,
// counter values, paint/switch settings. SaveState extracts the state
// (transferring ownership of any packets it contains — the old element
// must not touch them afterwards); RestoreState installs it into the
// replacement element. The two run back to back under a stopped
// scheduler, so neither needs locking beyond the element's own.
//
// State moves only between elements of the same Go type (compared with
// reflect, so devirtualized classes still match their originals), which
// lets RestoreState type-assert its argument unconditionally.
type StateCarrier interface {
	SaveState() interface{}
	RestoreState(state interface{}) error
}

// Hotswap transplants preservable state from rt into next, matching
// elements by configuration name. It is the one transplant routine: a
// whole-router swap passes the replacement router, a tenant swap
// (Scheduler.SwapTenant) passes just the tenant's rebuilt subrouter.
// For every matched pair the telemetry counters carry over; when the
// pair additionally shares a Go type and implements StateCarrier, the
// element's own state (queued packets, ARP tables, counters) moves
// across too. Elements present only in one router keep their defaults
// (new) or are abandoned with the old router (old).
//
// The caller must guarantee neither router is running: the old one
// stopped at a task-round boundary, the new one not yet started. Between
// rounds, in-flight packets live only inside elements (queues, ARP wait
// lists) and device rings, so name-matched transplant plus a shared
// device environment loses nothing.
//
// Hotswap charges no model cycles: the swap happens between scheduling
// rounds, outside any element's processing code, so the calibrated
// Figure 8/9 numbers are unaffected.
func (rt *Router) Hotswap(next *Router) error {
	type pair struct {
		name     string
		from, to Element
	}
	var pairs []pair
	for _, e := range next.elements {
		name := e.base().name
		old := rt.Find(name)
		if old == nil {
			continue
		}
		if len(pairs) == 0 {
			// Guard generations carry over first: transplanted cache
			// state (a FlowCache's entries) snapshots these counters, so
			// next must continue the counter history of the elements it
			// replaces. That history lives in the old element's backing
			// router — rt itself unless the element was spliced in, in
			// which case it is the tenant's own guard domain.
			next.guards.CopyFrom(old.base().router.guards)
		}
		pairs = append(pairs, pair{name, old, e})
	}
	// Transplant telemetry first: it is never destructive, and the swap
	// should present continuous counters even for elements whose class
	// changed (an optimizer pass replacing a Classifier still inherits
	// its packet counts).
	for _, p := range pairs {
		p.to.base().stats.Transplant(&p.from.base().stats)
	}
	// Then element state, guarded by Go-type identity. Devirtualize
	// renames classes (Queue -> Queue_dv0) but reuses the same Go type,
	// so the reflect comparison — not the class name — is the correct
	// compatibility test. The check runs before the destructive
	// SaveState drain, so an incompatible pair cannot lose packets.
	for _, p := range pairs {
		if reflect.TypeOf(p.from) != reflect.TypeOf(p.to) {
			continue
		}
		sc, ok := p.from.(StateCarrier)
		if !ok {
			continue
		}
		st := sc.SaveState()
		if st == nil {
			continue
		}
		if err := p.to.(StateCarrier).RestoreState(st); err != nil {
			return fmt.Errorf("core: hotswap %q: %v", p.name, err)
		}
	}
	return nil
}
