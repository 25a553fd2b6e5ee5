// Package graph defines the router-configuration graph that the
// optimizer tools analyze and transform. A Router is a set of named
// elements (class + configuration string) and directed port-to-port
// connections. The package provides the "extensive set of graph
// manipulations" the paper describes (§5.1): adding and removing
// elements, rerouting connections, and replacing subgraphs — operations
// that exist for the optimizers, not for the runtime, where
// configurations are static.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Element is one vertex of a router configuration.
type Element struct {
	Name   string
	Class  string
	Config string
	// Landmark records where the element came from (file:line or a
	// tool name) for error messages.
	Landmark string
	// dead marks an element removed but not yet compacted away.
	dead bool
}

// Connection is one directed edge between element ports.
type Connection struct {
	From     int // element index
	FromPort int
	To       int // element index
	ToPort   int
}

// Router is a configuration graph.
type Router struct {
	Elements []*Element
	Conns    []Connection
	// Requirements lists require() statements (package names the
	// configuration needs, e.g. names of generated element packages).
	Requirements []string
	// Archive holds extra files bundled with the configuration —
	// generated source code from tools like click-fastclassifier. A
	// stored value is immutable: writers replace it, never edit it in
	// place, so clones share the bytes.
	Archive map[string][]byte
	// AnonCounter numbers anonymous elements (Class@1, Class@2...).
	AnonCounter int

	byName map[string]int
	// index is the per-element adjacency the port queries read, built
	// on the first query; nil when absent. Single edits keep it
	// current, bulk edits drop it.
	index *adjacency
}

// adjacency lists each element's outgoing and incoming connections in
// Conns order. A list is never written once a query has handed it out:
// queries return capped slices, appends land beyond their capacity, and
// removals build new lists. So a slice a pass holds across an edit is a
// snapshot of the graph before the edit.
type adjacency struct {
	out, in [][]Connection
}

// adj returns the adjacency index, building it in O(E + C) if absent.
func (r *Router) adj() *adjacency {
	if r.index != nil {
		return r.index
	}
	n := len(r.Elements)
	nout, nin := make([]int, n), make([]int, n)
	for _, c := range r.Conns {
		nout[c.From]++
		nin[c.To]++
	}
	a := &adjacency{out: make([][]Connection, n), in: make([][]Connection, n)}
	buf := make([]Connection, 2*len(r.Conns))
	for i := 0; i < n; i++ {
		a.out[i], buf = buf[:0:nout[i]], buf[nout[i]:]
		a.in[i], buf = buf[:0:nin[i]], buf[nin[i]:]
	}
	for _, c := range r.Conns {
		a.out[c.From] = append(a.out[c.From], c)
		a.in[c.To] = append(a.in[c.To], c)
	}
	r.index = a
	return a
}

// dropConns returns list without the connections drop selects, in a
// new slice if it selects any: a list is never written in place.
func dropConns(list []Connection, drop func(Connection) bool) []Connection {
	var kept []Connection
	for k, c := range list {
		if drop(c) {
			if kept == nil {
				kept = append(make([]Connection, 0, len(list)-1), list[:k]...)
			}
			continue
		}
		if kept != nil {
			kept = append(kept, c)
		}
	}
	if kept == nil {
		return list
	}
	return kept
}

// capped returns s with its capacity cut to its length, or nil if it
// is empty.
func capped(s []Connection) []Connection {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}

// New returns an empty router graph.
func New() *Router {
	return &Router{byName: map[string]int{}, Archive: map[string][]byte{}}
}

// NumElements returns the number of live elements.
func (r *Router) NumElements() int {
	n := 0
	for _, e := range r.Elements {
		if !e.dead {
			n++
		}
	}
	return n
}

// NumNames returns the size of the name index FindElement reads: one
// entry per live element.
func (r *Router) NumNames() int { return len(r.byName) }

// Element returns the element with the given index.
func (r *Router) Element(i int) *Element { return r.Elements[i] }

// Dead reports whether element i has been removed.
func (r *Router) Dead(i int) bool { return r.Elements[i].dead }

// AddElement adds an element and returns its index. An empty name is
// assigned an anonymous name derived from the class ("Class@3").
func (r *Router) AddElement(name, class, config, landmark string) (int, error) {
	if name == "" {
		r.AnonCounter++
		name = fmt.Sprintf("%s@%d", class, r.AnonCounter)
	}
	if _, exists := r.byName[name]; exists {
		return -1, fmt.Errorf("graph: redeclaration of element %q", name)
	}
	idx := len(r.Elements)
	r.Elements = append(r.Elements, &Element{Name: name, Class: class, Config: config, Landmark: landmark})
	r.byName[name] = idx
	if a := r.index; a != nil {
		a.out = append(a.out, nil)
		a.in = append(a.in, nil)
	}
	return idx, nil
}

// MustAddElement is AddElement for programmatic construction where a
// name collision is a bug.
func (r *Router) MustAddElement(name, class, config, landmark string) int {
	idx, err := r.AddElement(name, class, config, landmark)
	if err != nil {
		panic(err)
	}
	return idx
}

// FindElement returns the index of the named live element, or -1. The
// name index holds live elements only (RemoveElement drops the name),
// so the lookup never reads the element itself.
func (r *Router) FindElement(name string) int {
	if idx, ok := r.byName[name]; ok {
		return idx
	}
	return -1
}

// Connect adds a connection. Duplicate connections are ignored (Click
// treats the connection set as a set). Without an index it scans Conns
// and builds none: parsing and splicing construct graphs this way.
func (r *Router) Connect(from, fromPort, to, toPort int) {
	c := Connection{From: from, FromPort: fromPort, To: to, ToPort: toPort}
	existing := r.Conns
	if r.index != nil {
		existing = r.index.out[from]
	}
	for _, x := range existing {
		if x == c {
			return
		}
	}
	r.Conns = append(r.Conns, c)
	if a := r.index; a != nil {
		a.out[from] = append(a.out[from], c)
		a.in[to] = append(a.in[to], c)
	}
}

// Disconnect removes the matching connection if present.
func (r *Router) Disconnect(from, fromPort, to, toPort int) {
	c := Connection{From: from, FromPort: fromPort, To: to, ToPort: toPort}
	for k, x := range r.Conns {
		if x != c {
			continue
		}
		r.Conns = append(r.Conns[:k], r.Conns[k+1:]...)
		if a := r.index; a != nil {
			is := func(x Connection) bool { return x == c }
			a.out[from] = dropConns(a.out[from], is)
			a.in[to] = dropConns(a.in[to], is)
		}
		return
	}
}

// RemoveElement marks an element dead and deletes all its connections.
func (r *Router) RemoveElement(i int) {
	e := r.Elements[i]
	if e.dead {
		return
	}
	e.dead = true
	delete(r.byName, e.Name)
	kept := r.Conns[:0]
	for _, c := range r.Conns {
		if c.From != i && c.To != i {
			kept = append(kept, c)
		}
	}
	r.Conns = kept
	if a := r.index; a != nil {
		touches := func(c Connection) bool { return c.From == i || c.To == i }
		outs, ins := a.out[i], a.in[i] // a self-loop edits both below
		for _, c := range outs {
			a.in[c.To] = dropConns(a.in[c.To], touches)
		}
		for _, c := range ins {
			a.out[c.From] = dropConns(a.out[c.From], touches)
		}
		a.out[i], a.in[i] = nil, nil
	}
}

// RemoveAndSplice removes element i, splicing each input connection on
// port p to every output connection on port p. It is the edit used when
// deleting a pass-through element (Null, redundant Align): packets that
// would have entered input p leave via output p's targets. New
// connections are made in ascending port order, then in Conns order.
// A self-loop on element i is dropped with it, not spliced.
func (r *Router) RemoveAndSplice(i int) {
	nin, ins, outs := r.NInputs(i), r.ConnsTo(i), r.ConnsFrom(i)
	r.RemoveElement(i)
	for p := 0; p < nin; p++ {
		for _, ic := range ins {
			if ic.ToPort != p || ic.From == i {
				continue
			}
			for _, oc := range outs {
				if oc.FromPort == p && oc.To != i {
					r.Connect(ic.From, ic.FromPort, oc.To, oc.ToPort)
				}
			}
		}
	}
}

// Compact removes dead elements from the slice, renumbering indices in
// all connections. It returns the mapping from old index to new index
// (-1 for removed elements).
func (r *Router) Compact() []int {
	remap := make([]int, len(r.Elements))
	live := r.Elements[:0]
	for i, e := range r.Elements {
		if e.dead {
			remap[i] = -1
			continue
		}
		remap[i] = len(live)
		live = append(live, e)
	}
	r.Elements = live
	r.byName = make(map[string]int, len(live))
	for i, e := range live {
		r.byName[e.Name] = i
	}
	for i := range r.Conns {
		r.Conns[i].From = remap[r.Conns[i].From]
		r.Conns[i].To = remap[r.Conns[i].To]
	}
	r.index = nil
	return remap
}

// OutputConns returns the connections leaving element i's port p.
func (r *Router) OutputConns(i, port int) []Connection {
	return onPort(r.adj().out[i], port, func(c Connection) int { return c.FromPort })
}

// InputConns returns the connections entering element i's port p.
func (r *Router) InputConns(i, port int) []Connection {
	return onPort(r.adj().in[i], port, func(c Connection) int { return c.ToPort })
}

// onPort returns the connections in list whose port is p, in list
// order: a capped subslice when they are adjacent, else a copy.
func onPort(list []Connection, p int, portOf func(Connection) int) []Connection {
	lo := 0
	for lo < len(list) && portOf(list[lo]) != p {
		lo++
	}
	hi := lo
	for hi < len(list) && portOf(list[hi]) == p {
		hi++
	}
	rest := hi
	for rest < len(list) && portOf(list[rest]) != p {
		rest++
	}
	if rest == len(list) {
		return capped(list[lo:hi])
	}
	out := append([]Connection(nil), list[lo:hi]...)
	for _, c := range list[rest:] {
		if portOf(c) == p {
			out = append(out, c)
		}
	}
	return out
}

// ConnsFrom returns all connections leaving element i.
func (r *Router) ConnsFrom(i int) []Connection { return capped(r.adj().out[i]) }

// ConnsTo returns all connections entering element i.
func (r *Router) ConnsTo(i int) []Connection { return capped(r.adj().in[i]) }

// NInputs returns the number of input ports element i uses (max port
// number + 1 over all incoming connections).
func (r *Router) NInputs(i int) int {
	n := 0
	for _, c := range r.adj().in[i] {
		n = max(n, c.ToPort+1)
	}
	return n
}

// NOutputs returns the number of output ports element i uses.
func (r *Router) NOutputs(i int) int {
	n := 0
	for _, c := range r.adj().out[i] {
		n = max(n, c.FromPort+1)
	}
	return n
}

// LiveIndices returns the indices of all live elements in order.
func (r *Router) LiveIndices() []int {
	var out []int
	for i, e := range r.Elements {
		if !e.dead {
			out = append(out, i)
		}
	}
	return out
}

// SortConns orders the connection list (by from-element, from-port,
// to-element, to-port), for deterministic output.
func (r *Router) SortConns() {
	r.index = nil
	sort.Slice(r.Conns, func(a, b int) bool {
		x, y := r.Conns[a], r.Conns[b]
		if x.From != y.From {
			return x.From < y.From
		}
		if x.FromPort != y.FromPort {
			return x.FromPort < y.FromPort
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return x.ToPort < y.ToPort
	})
}

// Clone returns a copy of the router graph that shares nothing mutable
// with r: the archive's values are immutable, so they are shared.
func (r *Router) Clone() *Router {
	n := New()
	n.Elements = make([]*Element, len(r.Elements))
	for i, e := range r.Elements {
		cp := *e
		n.Elements[i] = &cp
		if !e.dead {
			n.byName[e.Name] = i
		}
	}
	n.Conns = append([]Connection(nil), r.Conns...)
	n.Requirements = append([]string(nil), r.Requirements...)
	n.AnonCounter = r.AnonCounter
	for k, v := range r.Archive {
		n.Archive[k] = v
	}
	return n
}

// Require records a requirement if not already present.
func (r *Router) Require(feature string) {
	for _, f := range r.Requirements {
		if f == feature {
			return
		}
	}
	r.Requirements = append(r.Requirements, feature)
}

// Rename changes an element's name, keeping the index map consistent.
func (r *Router) Rename(i int, name string) error {
	e := r.Elements[i]
	if e.dead {
		return fmt.Errorf("graph: renaming dead element")
	}
	if name == e.Name {
		return nil
	}
	if _, exists := r.byName[name]; exists {
		return fmt.Errorf("graph: rename to existing name %q", name)
	}
	delete(r.byName, e.Name)
	e.Name = name
	r.byName[name] = i
	return nil
}

// String renders a compact description for debugging.
func (r *Router) String() string {
	var b strings.Builder
	for i, e := range r.Elements {
		if e.dead {
			continue
		}
		fmt.Fprintf(&b, "%d: %s :: %s(%s)\n", i, e.Name, e.Class, e.Config)
	}
	for _, c := range r.Conns {
		fmt.Fprintf(&b, "%s[%d] -> [%d]%s\n", r.Elements[c.From].Name, c.FromPort, c.ToPort, r.Elements[c.To].Name)
	}
	return b.String()
}
