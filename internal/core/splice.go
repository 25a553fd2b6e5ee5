package core

import (
	"fmt"
	"sort"
)

// Incremental installation. Hot-swap replaces a whole router; at fleet
// scale (a management plane hosting hundreds of tenant subgraphs under
// name prefixes) that makes every control operation O(total elements).
// The operations here patch a *running* router instead: a freshly built
// disjoint subrouter is spliced in, or a spliced one taken back out, in
// O(affected subgraph) work. They preserve the configuration-is-static
// model (§5.1) in the only way that matters: each tenant's subgraph is
// itself immutable and was assembled by the ordinary Build path — the
// splice only appends to the element, task, and processing tables, it
// never rewires a live element's ports.
//
// A spliced subrouter is its own removal handle. Splice appends its
// elements and tasks together, and compaction keeps table order, so
// Remove finds them all from one name lookup and one binary search of
// the task table (which stays in element order). It leaves tombstones:
// nil elements, dead graph elements, and nil tasks of weight 0, which
// the round loop steps over without calling. Tasks are compacted away
// once they are a quarter of the task table, element slots once they
// outnumber the live ones. The live router's graph lists a spliced
// element's name, class and configuration — what Find, handlers and
// telemetry read — but not its connections, which stay in the
// subrouter's own graph, so no removal filters the fleet's connection
// list. A removal visits only its own subrouter's slots; compaction
// costs the fleet but runs once per that many removed slots.
//
// Callers must hold a scheduler quiescent point (SyncDo); nothing here
// is safe against a running dataplane. Like Hotswap, these operations
// charge zero model cycles.
//
// A spliced element keeps the *Router it was built with as its backing
// router (Base.router): that router's guard generations are the
// element's guard domain. This is what gives the management plane
// per-tenant guard isolation for free — a tenant's write handlers bump
// only its own build-router's counters, so a neighbor's flow fast path
// is never invalidated by someone else's route churn.

// Splice appends sub's assembled elements, tasks, and processing
// assignments into rt. The two element namespaces must be disjoint
// (checked before any mutation) and the two graphs must not be linked —
// sub is a self-contained region whose only external contact is through
// its device environment. Sub's elements are adopted as built: already
// configured, initialized, and wired among themselves. Keep sub: it is
// the handle Remove and Scheduler.SwapTenant take.
func (rt *Router) Splice(sub *Router) error {
	if len(sub.Graph.Elements) != len(sub.elements) {
		return fmt.Errorf("core: splice: subrouter graph/element tables out of step")
	}
	for _, ge := range sub.Graph.Elements {
		if rt.Graph.FindElement(ge.Name) >= 0 {
			return fmt.Errorf("core: splice: collision on element %q", ge.Name)
		}
	}
	base := len(rt.elements)
	for i, e := range sub.elements {
		ge := sub.Graph.Elements[i]
		rt.Graph.MustAddElement(ge.Name, ge.Class, ge.Config, ge.Landmark)
		rt.elements = append(rt.elements, e)
		rt.proc.In = append(rt.proc.In, sub.proc.In[i])
		rt.proc.Out = append(rt.proc.Out, sub.proc.Out[i])
	}
	for _, t := range sub.tasks {
		t.base.asleep = false
		t.elem += base
		rt.tasks = append(rt.tasks, t)
	}
	return nil
}

// Remove takes out what Splice(sub) added and returns sub's elements,
// so the caller can close ones holding external resources. It does
// nothing, and returns nil, if sub is not spliced into rt.
func (rt *Router) Remove(sub *Router) []Element {
	if len(sub.elements) == 0 {
		return nil
	}
	at := rt.Graph.FindElement(sub.elements[0].base().name)
	if at < 0 || rt.elements[at] != sub.elements[0] {
		return nil // not spliced into rt
	}
	for k := range sub.elements {
		rt.Graph.RemoveElement(at + k)
		rt.elements[at+k] = nil
	}
	rt.dead += len(sub.elements)
	if n := len(sub.tasks); n > 0 {
		first := at + sub.tasks[0].elem
		lo := sort.Search(len(rt.tasks), func(t int) bool { return rt.tasks[t].elem >= first })
		for t := lo; t < lo+n; t++ {
			rt.tasks[t] = task{elem: rt.tasks[t].elem} // keeps the search sorted
		}
		rt.deadTasks += n
	}
	rt.maybeCompact()
	return sub.elements
}

// maybeCompact drops the removed tasks once they are a quarter of the
// task table, and renumbers the element tables once dead slots
// outnumber live ones, keeping the graph, element list, processing
// table, and task element indices aligned.
func (rt *Router) maybeCompact() {
	live := len(rt.elements) - rt.dead
	renumber := rt.dead > live
	// Dead tasks go first: renumbering maps their elements to -1.
	if renumber || 4*rt.deadTasks > len(rt.tasks) {
		kept := rt.tasks[:0]
		for _, t := range rt.tasks {
			if t.run != nil {
				kept = append(kept, t)
			}
		}
		clear(rt.tasks[len(kept):])
		rt.tasks = kept
		rt.deadTasks = 0
	}
	if !renumber {
		return
	}
	remap := rt.Graph.Compact()
	elems := make([]Element, 0, live)
	// In-place compaction is safe: live entries only move to lower
	// indices, so a slot is overwritten only after it has been read.
	newIn := rt.proc.In[:0]
	newOut := rt.proc.Out[:0]
	for i, ni := range remap {
		if ni < 0 {
			continue
		}
		elems = append(elems, rt.elements[i])
		newIn = append(newIn, rt.proc.In[i])
		newOut = append(newOut, rt.proc.Out[i])
	}
	rt.elements = elems
	rt.proc.In, rt.proc.Out = newIn, newOut
	for t := range rt.tasks {
		rt.tasks[t].elem = remap[rt.tasks[t].elem]
	}
	rt.dead = 0
}

// Census counts what the live router holds: non-nil elements, scheduled
// tasks, and names in its graph's name index. Splicing a subrouter adds its
// own census to each; removing it must take exactly that back.
func (rt *Router) Census() (elements, tasks, names int) {
	for _, e := range rt.elements {
		if e != nil {
			elements++
		}
	}
	for _, t := range rt.tasks {
		if t.run != nil {
			tasks++
		}
	}
	return elements, tasks, rt.Graph.NumNames()
}
