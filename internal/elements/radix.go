package elements

import (
	"repro/internal/core"
	"repro/internal/packet"
)

// RadixIPLookup is Click's fast longest-prefix-match routing element: a
// binary radix (Patricia-style) trie over destination addresses. It
// accepts the same configuration as LookupIPRoute and behaves
// identically; the difference is lookup cost — O(address bits) instead
// of O(table size) — which matters for large tables.
type RadixIPLookup struct {
	core.Base
	table   LookupIPRoute // reuse configuration parsing and semantics
	root    *radixNode
	NoRoute int64
}

type radixNode struct {
	child [2]*radixNode
	// leaf is non-nil when a route terminates at this node.
	leaf *route
}

// Configure parses the route table and builds the trie.
func (e *RadixIPLookup) Configure(args []string) error {
	if err := e.table.Configure(args); err != nil {
		return err
	}
	e.root = &radixNode{}
	for i := range e.table.routes {
		r := &e.table.routes[i]
		n := e.root
		for b := 0; b < r.maskLen; b++ {
			bit := (r.dst >> (31 - b)) & 1
			if n.child[bit] == nil {
				n.child[bit] = &radixNode{}
			}
			n = n.child[bit]
		}
		// First route wins on exact duplicates, as in the linear scan
		// (which keeps the earliest longest match).
		if n.leaf == nil {
			n.leaf = r
		}
	}
	return nil
}

// Lookup returns the longest-prefix route for an address.
func (e *RadixIPLookup) Lookup(a packet.IP4) (route, bool) {
	v := a.Uint32()
	var best *route
	n := e.root
	for b := 0; b < 32 && n != nil; b++ {
		if n.leaf != nil {
			best = n.leaf
		}
		n = n.child[(v>>(31-b))&1]
	}
	if n != nil && n.leaf != nil {
		best = n.leaf
	}
	if best == nil {
		return route{}, false
	}
	return *best, true
}

// PushBatch routes on the destination annotation, like LookupIPRoute.
func (e *RadixIPLookup) PushBatch(port int, ps []*packet.Packet) {
	pushRun(routeRuns(&e.Base, e, ps))
}

func (e *RadixIPLookup) route(p *packet.Packet) int {
	e.Work()
	dst := nextHop(p)
	r, ok := e.Lookup(dst)
	return routedPort(&e.Base, &e.NoRoute, r, ok, dst, p)
}

// Handlers exports routing statistics.
func (e *RadixIPLookup) Handlers() []core.Handler {
	return []core.Handler{intHandler("no_route", func() int64 { return e.NoRoute })}
}
