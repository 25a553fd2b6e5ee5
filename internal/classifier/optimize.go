package classifier

// This file implements the decision-tree optimizations Click applies to
// its classifiers (§3 mentions "an extensive set of decision tree
// optimizations, similar to BPF+'s"):
//
//   - trivial-node collapse: a node whose branches agree is removed;
//   - branch contraction: an edge into a node whose test is decided by
//     the fact established on that edge skips the node (this removes the
//     repeated protocol/header-length/fragment tests that rule lists
//     generate);
//   - common-subtree merging (hash-consing);
//   - dead-node elimination and topological renumbering, which also
//     canonicalizes programs so equivalent trees compare equal.

// Optimize rewrites the program in place until no rule applies.
func (pr *Program) Optimize() {
	pr.renumber()             // establish the forward-edge invariant first
	for i := 0; i < 64; i++ { // fixpoint bound; real programs settle in a few rounds
		changed := false
		if pr.collapseTrivial() {
			changed = true
		}
		if pr.contractBranches() {
			changed = true
		}
		if pr.mergeCommonSubtrees() {
			changed = true
		}
		pr.renumber()
		if !changed {
			break
		}
	}
	pr.computeSafeLength()
}

// resolve follows trivial replacements in a remap table.
func resolve(remap map[Target]Target, t Target) Target {
	for {
		n, ok := remap[t]
		if !ok {
			return t
		}
		t = n
	}
}

// collapseTrivial removes nodes whose yes and no branches agree.
func (pr *Program) collapseTrivial() bool {
	remap := map[Target]Target{}
	for i := range pr.Exprs {
		e := &pr.Exprs[i]
		if e.Yes == e.No {
			remap[Target(i)] = e.Yes
		}
	}
	if len(remap) == 0 {
		return false
	}
	pr.Entry = resolve(remap, pr.Entry)
	for i := range pr.Exprs {
		pr.Exprs[i].Yes = resolve(remap, pr.Exprs[i].Yes)
		pr.Exprs[i].No = resolve(remap, pr.Exprs[i].No)
	}
	return true
}

// contractBranches applies the edge facts. Taking a node's yes edge
// establishes (word(off) & mask) == value; taking the no edge
// establishes the negation. A successor testing the same word with a
// submask is decided by a yes-side fact; a successor repeating the
// identical test is decided by either fact.
func (pr *Program) contractBranches() bool {
	changed := false
	for i := range pr.Exprs {
		u := &pr.Exprs[i]
		// Yes side: fact (w & u.Mask) == u.Value.
		for !u.Yes.IsLeaf() {
			c := &pr.Exprs[u.Yes]
			if c.Offset != u.Offset || c.Mask&^u.Mask != 0 {
				break
			}
			if u.Value&c.Mask == c.Value {
				u.Yes = c.Yes
			} else {
				u.Yes = c.No
			}
			changed = true
		}
		// No side: fact (w & u.Mask) != u.Value. Only an identical
		// test is decided (it must also fail).
		for !u.No.IsLeaf() {
			c := &pr.Exprs[u.No]
			if c.Offset != u.Offset || c.Mask != u.Mask || c.Value != u.Value {
				break
			}
			u.No = c.No
			changed = true
		}
	}
	return changed
}

// mergeCommonSubtrees hash-conses identical nodes. Nodes are keyed by
// their full contents; since edges point to already-canonicalized
// targets when processed in reverse topological order, equal keys mean
// equal subtrees.
func (pr *Program) mergeCommonSubtrees() bool {
	type key struct {
		off  int32
		mask uint32
		val  uint32
		yes  Target
		no   Target
	}
	// Process in reverse index order; the builder and renumber keep
	// edges forward, so children have higher indices than parents.
	canon := make(map[key]Target, len(pr.Exprs))
	remap := map[Target]Target{}
	changed := false
	for i := len(pr.Exprs) - 1; i >= 0; i-- {
		e := &pr.Exprs[i]
		e.Yes = resolve(remap, e.Yes)
		e.No = resolve(remap, e.No)
		k := key{e.Offset, e.Mask, e.Value, e.Yes, e.No}
		if prev, ok := canon[k]; ok {
			remap[Target(i)] = prev
			changed = true
		} else {
			canon[k] = Target(i)
		}
	}
	pr.Entry = resolve(remap, pr.Entry)
	for i := range pr.Exprs {
		pr.Exprs[i].Yes = resolve(remap, pr.Exprs[i].Yes)
		pr.Exprs[i].No = resolve(remap, pr.Exprs[i].No)
	}
	return changed
}

// renumber removes unreachable nodes and renumbers the rest in
// topological order from the entry, restoring the forward-edge
// invariant (DFS preorder would not: a diamond's far corner can receive
// a lower number than one of its predecessors).
func (pr *Program) renumber() {
	visited := make([]bool, len(pr.Exprs))
	post := make([]int, 0, len(pr.Exprs))
	var visit func(t Target)
	visit = func(t Target) {
		if t.IsLeaf() || visited[t] {
			return
		}
		visited[t] = true
		visit(pr.Exprs[t].Yes)
		visit(pr.Exprs[t].No)
		post = append(post, int(t))
	}
	visit(pr.Entry)
	// Reverse postorder is a topological order.
	order := make([]int, 0, len(post))
	newIdx := make([]Target, len(pr.Exprs))
	for i := range newIdx {
		newIdx[i] = -1
	}
	for i := len(post) - 1; i >= 0; i-- {
		newIdx[post[i]] = Target(len(order))
		order = append(order, post[i])
	}
	mapT := func(t Target) Target {
		if t.IsLeaf() {
			return t
		}
		return newIdx[t]
	}
	exprs := make([]Expr, len(order))
	for n, old := range order {
		e := pr.Exprs[old]
		e.Yes = mapT(e.Yes)
		e.No = mapT(e.No)
		exprs[n] = e
	}
	pr.Exprs = exprs
	pr.Entry = mapT(pr.Entry)
}

// Equal reports whether two optimized programs are structurally
// identical. click-fastclassifier generates one class per distinct
// decision tree; classifiers with identical trees share the class.
func (pr *Program) Equal(o *Program) bool {
	if pr.NOutputs != o.NOutputs || pr.Entry != o.Entry || len(pr.Exprs) != len(o.Exprs) {
		return false
	}
	for i := range pr.Exprs {
		if pr.Exprs[i] != o.Exprs[i] {
			return false
		}
	}
	return true
}
