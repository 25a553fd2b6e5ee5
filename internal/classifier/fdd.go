package classifier

// This file implements the whole-path fusion machinery click-fuse rests
// on: composing a run of consecutive decision-tree programs into one
// program (Splice), and canonicalizing the composition into a
// forwarding decision diagram (SpecializeFDD) — a hash-consed DAG in
// which every test along a path is informative, in the style of the
// FDDs of "A Fast Compiler for NetKAT". Per-element trees repeat work
// across stage boundaries (the downstream classifier re-tests the
// protocol field the upstream filter already established); the
// path-sensitive rebuild propagates the facts each edge establishes and
// drops every test they decide, while hash-consing shares identical
// result subtrees so the diagram stays compact where trees blow up. The
// rebuild's working memory is sized once per program: one fact slot per
// node (the depth bound of a path) and one undo stack of chain heads.

import "math/bits"

// Clone returns a deep copy of the program. Optimize rewrites the node
// list in place and SpecializeFDD replaces it; callers composing
// programs that are shared (a compiled classifier's tree, a registry
// spec's program) must clone first.
func (pr *Program) Clone() *Program {
	c := *pr
	c.Exprs = append([]Expr(nil), pr.Exprs...)
	return &c
}

// Splice composes a root program with per-port continuations: packets
// leaving root on port q continue into cont[q] when that is non-nil;
// otherwise they exit the composition on port exitPort[q] (or are
// dropped when exitPort[q] < 0). Leaf ports inside each continuation
// are already in the composed output space — the fuse pass builds
// bottom-up, so a continuation's leaves were remapped by its own Splice
// call. Drop leaves stay drops at every level. The caller sets NOutputs
// on the result (the composition does not know the final exit count)
// and should Optimize afterwards.
func Splice(root *Program, cont []*Program, exitPort []int) *Program {
	out := &Program{Entry: root.Entry}
	out.Exprs = append(out.Exprs, root.Exprs...)

	// Append each continuation's nodes, shifting its internal edges.
	base := make([]int, len(cont))
	for q, c := range cont {
		if c == nil {
			continue
		}
		base[q] = len(out.Exprs)
		for _, e := range c.Exprs {
			if !e.Yes.IsLeaf() {
				e.Yes += Target(base[q])
			}
			if !e.No.IsLeaf() {
				e.No += Target(base[q])
			}
			out.Exprs = append(out.Exprs, e)
		}
	}

	// Remap root leaves: port q becomes the continuation's entry or an
	// exit leaf. Only root's nodes (and the entry) carry leaves in
	// root's port space.
	mapLeaf := func(t Target) Target {
		q, ok := t.Port()
		if !ok {
			return Drop
		}
		if q < len(cont) && cont[q] != nil {
			et := cont[q].Entry
			if et.IsLeaf() {
				return et // already in composed space
			}
			return et + Target(base[q])
		}
		if q < len(exitPort) && exitPort[q] >= 0 {
			return LeafPort(exitPort[q])
		}
		return Drop
	}
	for i := range root.Exprs {
		e := &out.Exprs[i]
		if e.Yes.IsLeaf() {
			e.Yes = mapLeaf(e.Yes)
		}
		if e.No.IsLeaf() {
			e.No = mapLeaf(e.No)
		}
	}
	if out.Entry.IsLeaf() {
		out.Entry = mapLeaf(out.Entry)
	}
	out.computeSafeLength()
	return out
}

// fddFact is one assertion established along a path: the masked word at
// off compares eq (or not-eq) to value. Facts at one word offset form
// a chain down the current path (prevSame); osum/omix accumulate the
// chain's per-fact fingerprints commutatively, so the facts relevant to
// a subtree fingerprint in O(distinct offsets), not O(path length). A
// path never carries duplicate facts — a test whose fact is already on
// the path would have been decided, not re-tested.
type fddFact struct {
	off      int32
	mask     uint32
	value    uint32
	eq       bool
	osum     uint64
	omix     uint64
	prevSame *fddFact
}

func fddFactHash(off int32, mask, value uint32, eq bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(uint32(off)))
	mix(uint64(mask))
	mix(uint64(value))
	if eq {
		mix(1)
	} else {
		mix(2)
	}
	return h
}

// fddDecide reports whether the facts on a path decide test e, and the
// decision. facts is the path's fact chain for e's offset bucket (a
// shared overflow bucket may interleave other offsets, hence the off
// check). Equality facts at the same offset accumulate known bits; the
// test is false if its value disagrees with known bits, true if its
// mask is fully known and agrees. A negative fact falsifies an
// identical test, and also any test whose success would imply the
// negated fact (the negated mask is a submask and the values agree on
// it). All decisions remain sound for short packets: deciding true
// requires a successful covering test (so the data covers the bytes),
// and deciding false is safe because short-packet tests fail anyway.
func fddDecide(e *Expr, facts *fddFact) (known, value bool) {
	var km, kv uint32
	for f := facts; f != nil; f = f.prevSame {
		if f.off != e.Offset {
			continue
		}
		if f.eq {
			km |= f.mask
			kv |= f.value
			// Early exit the moment the accumulated bits decide the
			// test — newest facts come first, so a pinned field
			// resolves in one step even under a long chain of stale
			// negative facts.
			if common := km & e.Mask; kv&common != e.Value&common {
				return true, false
			}
			if e.Mask&^km == 0 {
				return true, true
			}
		} else if f.mask&^e.Mask == 0 && e.Value&f.mask == f.value {
			return true, false
		}
	}
	return false, false
}

// SpecializeFDD rebuilds the program path-sensitively into a decision
// diagram: it walks every path, propagates the fact each edge
// establishes, skips tests those facts decide, and hash-conses the
// rebuilt nodes so identical subtrees are shared. The rebuild
// enumerates fact contexts, which can blow up on adversarial inputs, so
// it is budgeted: when more than maxVisits node visits are needed the
// program is left untouched and the method reports false (the
// un-specialized program is equally correct, just larger).
//
// Decided tests are the common case on long rule chains (a context
// that pinned the source host falsifies every later rule about another
// host), so they take a fast path: no memo traffic, just a hop to the
// surviving branch. Memo entries exist only at expansion points, keyed
// by (node, commutative 128-bit fingerprint of the facts relevant to
// the node's subtree); relevant facts are found per word offset through
// cumulative chain fingerprints, so a key costs O(distinct offsets).
// Fingerprint collisions are astronomically unlikely and the
// differential harness guards the result regardless.
func (pr *Program) SpecializeFDD(maxVisits int) bool {
	if pr.Entry.IsLeaf() || len(pr.Exprs) == 0 {
		return true
	}

	// Assign field ids per word offset. Relevance filtering keys memo
	// entries only on facts a subtree can actually be decided by; since
	// fddDecide combines facts across different masks at one offset, the
	// unit of relevance is the offset, not the (offset, mask) pair. With
	// more than 63 distinct offsets the remainder share an overflow id
	// and are included conservatively.
	fieldID := map[int32]int{}
	idOf := func(off int32) int {
		if id, ok := fieldID[off]; ok {
			return id
		}
		id := len(fieldID)
		if id > 63 {
			id = 63
		}
		fieldID[off] = id
		return id
	}
	// Per-subtree field bitmaps: edges are forward, so children have
	// higher indices and are computed first.
	fids := make([]int, len(pr.Exprs))
	sub := make([]uint64, len(pr.Exprs))
	for i := len(pr.Exprs) - 1; i >= 0; i-- {
		e := &pr.Exprs[i]
		fids[i] = idOf(e.Offset)
		b := uint64(1) << uint(fids[i])
		if !e.Yes.IsLeaf() {
			b |= sub[e.Yes]
		}
		if !e.No.IsLeaf() {
			b |= sub[e.No]
		}
		sub[i] = b
	}

	// Rebuilt nodes, children-first (edges point to lower indices),
	// hash-consed so identical subtrees are one node.
	nodes := make([]Expr, 0, len(pr.Exprs))
	hcons := make(map[nodeKey]Target, len(pr.Exprs))
	mkNode := func(e *Expr, yes, no Target) Target {
		if yes == no {
			return yes
		}
		k := nodeKey{e.Offset, e.Mask, e.Value, yes, no}
		if t, ok := hcons[k]; ok {
			return t
		}
		nodes = append(nodes, Expr{Offset: e.Offset, Mask: e.Mask, Value: e.Value, Yes: yes, No: no})
		t := Target(len(nodes) - 1)
		hcons[k] = t
		return t
	}

	type mkey struct {
		t        Target
		sum, mix uint64
	}
	memo := make(map[mkey]Target, 2*len(pr.Exprs))
	visits := 0
	overBudget := false

	// heads[b] is the current path's fact chain for offset bucket b, one
	// bucket per field id. The walk is depth first and memo keys hold
	// only fingerprints, so one heads array serves every path as an
	// undo stack: an expansion saves heads[b], pushes its fact, recurses
	// and restores. The fact an expansion at path depth d pushes lives in
	// facts[d]; edges point forward, so a path expands each node at most
	// once and len(pr.Exprs) slots bound the depth.
	heads := make([]*fddFact, min(len(fieldID), 64))
	facts := make([]fddFact, len(pr.Exprs))
	fact := func(d int, e *Expr, eq bool, prev *fddFact) *fddFact {
		f := &facts[d]
		hash := fddFactHash(e.Offset, e.Mask, e.Value, eq)
		*f = fddFact{off: e.Offset, mask: e.Mask, value: e.Value, eq: eq, prevSame: prev}
		f.osum, f.omix = hash, bits.RotateLeft64(hash, int(hash>>58))
		if prev != nil {
			f.osum += prev.osum
			f.omix ^= prev.omix
		}
		return f
	}

	var build func(t Target, depth int) Target
	build = func(t Target, depth int) Target {
		// Decided fast path: hop along the chain of tests the path's
		// facts already answer, without touching the memo.
		for !t.IsLeaf() && !overBudget {
			visits++
			if visits > maxVisits {
				overBudget = true
				return Drop
			}
			e := &pr.Exprs[t]
			known, v := fddDecide(e, heads[fids[t]])
			if !known {
				break
			}
			if v {
				t = e.Yes
			} else {
				t = e.No
			}
		}
		if t.IsLeaf() || overBudget {
			return t
		}
		// Expansion: fingerprint the facts relevant to this subtree.
		rel := sub[t]
		var sum, mix uint64
		for r := rel; r != 0; r &= r - 1 {
			if f := heads[bits.TrailingZeros64(r)]; f != nil {
				sum += f.osum
				mix ^= f.omix
			}
		}
		k := mkey{t, sum, mix}
		if r, ok := memo[k]; ok {
			return r
		}
		e := &pr.Exprs[t]
		b := fids[t]
		saved := heads[b]
		heads[b] = fact(depth, e, true, saved)
		yes := build(e.Yes, depth+1)
		heads[b] = fact(depth, e, false, saved)
		no := build(e.No, depth+1)
		heads[b] = saved
		r := mkNode(e, yes, no)
		if !overBudget {
			memo[k] = r
		}
		return r
	}

	entry := build(pr.Entry, 0)
	if overBudget {
		return false
	}
	// Children were appended before parents; renumber restores the
	// forward-edge invariant and canonicalizes (its order depends only
	// on the diagram's shape, not on the node indices it starts from).
	pr.Exprs = nodes
	pr.Entry = entry
	pr.renumber()
	pr.computeSafeLength()
	return true
}
