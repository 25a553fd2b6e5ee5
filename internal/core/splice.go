package core

import (
	"fmt"
	"strings"
)

// Incremental installation. Hot-swap replaces a whole router; at fleet
// scale (a management plane hosting hundreds of tenant subgraphs under
// name prefixes) that makes every control operation O(total elements).
// The operations here patch a *running* router instead: a freshly built
// disjoint subgraph is spliced in, or a name-prefixed region is removed,
// in O(affected subgraph) work. They preserve the configuration-is-
// static model (§5.1) in the only way that matters: each tenant's
// subgraph is itself immutable and was assembled by the ordinary Build
// path — the splice only concatenates element, task, and processing
// tables, it never rewires a live element's ports.
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

// Splice appends sub's assembled elements, connections, tasks, and
// processing assignments into rt. The two element namespaces must be
// disjoint (checked before any mutation) and the two graphs must not be
// linked — sub is a self-contained region whose only external contact
// is through its device environment. Sub's elements are adopted as
// built: already configured, initialized, and wired among themselves.
func (rt *Router) Splice(sub *Router) error {
	if len(sub.Graph.Elements) != len(sub.elements) {
		return fmt.Errorf("core: splice: subrouter graph/element tables out of step")
	}
	remap, err := rt.Graph.AppendFrom(sub.Graph)
	if err != nil {
		return fmt.Errorf("core: splice: %v", err)
	}
	for i, ni := range remap {
		if ni < 0 {
			continue
		}
		if ni != len(rt.elements) {
			return fmt.Errorf("core: splice: element table out of step with graph")
		}
		rt.elements = append(rt.elements, sub.elements[i])
		rt.proc.In = append(rt.proc.In, sub.proc.In[i])
		rt.proc.Out = append(rt.proc.Out, sub.proc.Out[i])
		rt.byName[sub.Graph.Elements[i].Name] = sub.elements[i]
	}
	for t, task := range sub.tasks {
		rt.tasks = append(rt.tasks, task)
		rt.weights = append(rt.weights, sub.weights[t])
		rt.taskElems = append(rt.taskElems, remap[sub.taskElems[t]])
	}
	return nil
}

// RemoveByPrefix removes every element whose name starts with prefix,
// in one pass over the tables. It returns the removed elements, so the
// caller can close ones holding external resources. Dead slots are
// compacted away once they outnumber the live elements, so a long
// create/delete history cannot grow the tables without bound.
func (rt *Router) RemoveByPrefix(prefix string) (removed []Element) {
	deadSet := map[int]bool{}
	var deadIdx []int
	for i, ge := range rt.Graph.Elements {
		if rt.Graph.Dead(i) || !strings.HasPrefix(ge.Name, prefix) {
			continue
		}
		deadIdx = append(deadIdx, i)
		deadSet[i] = true
		if e := rt.elements[i]; e != nil {
			removed = append(removed, e)
			rt.elements[i] = nil
		}
		delete(rt.byName, ge.Name)
	}
	rt.Graph.RemoveElements(deadIdx)
	kt, kw, ke := rt.tasks[:0], rt.weights[:0], rt.taskElems[:0]
	for t := range rt.tasks {
		if deadSet[rt.taskElems[t]] {
			continue
		}
		kt = append(kt, rt.tasks[t])
		kw = append(kw, rt.weights[t])
		ke = append(ke, rt.taskElems[t])
	}
	rt.tasks, rt.weights, rt.taskElems = kt, kw, ke
	rt.maybeCompact()
	return removed
}

// maybeCompact renumbers the element tables when dead slots outnumber
// live ones, keeping the graph, element list, processing table, and
// task element indices aligned.
func (rt *Router) maybeCompact() {
	live := rt.Graph.NumElements()
	if len(rt.Graph.Elements)-live <= live {
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
	for t := range rt.taskElems {
		rt.taskElems[t] = remap[rt.taskElems[t]]
	}
}
