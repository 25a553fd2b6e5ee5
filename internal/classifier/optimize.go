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

// Optimize rewrites the program in place until no rule applies; it may
// write into the node array it was given.
func (pr *Program) Optimize() {
	var s optScratch
	s.renumber(pr)            // establish the forward-edge invariant first
	for i := 0; i < 64; i++ { // fixpoint bound; real programs settle in a few rounds
		changed := false
		if pr.collapseTrivial(&s) {
			changed = true
		}
		if pr.contractBranches() {
			changed = true
		}
		if pr.mergeCommonSubtrees(&s) {
			changed = true
		}
		if !changed {
			break // the program is still in the order the last renumber left
		}
		s.renumber(pr)
	}
	pr.computeSafeLength()
}

// optScratch is the working memory of one Optimize call, reused by
// every round: renumber's DFS marks, postorder and index map, the
// rewrite passes' remap table and hash-cons map, and the node array
// renumber writes into (the two arrays swap roles each time).
type optScratch struct {
	visited []bool
	post    []int
	newIdx  []Target
	fwd     []Target
	canon   map[nodeKey]Target
	spare   []Expr
}

// nodeKey is a node's full contents, its hash-consing key.
type nodeKey struct {
	off  int32
	mask uint32
	val  uint32
	yes  Target
	no   Target
}

// remapTable returns fwd sized for the program with every node mapped
// to itself (unmapped).
func (s *optScratch) remapTable(n int) []Target {
	if cap(s.fwd) < n {
		s.fwd = make([]Target, n)
	}
	s.fwd = s.fwd[:n]
	for i := range s.fwd {
		s.fwd[i] = Target(i)
	}
	return s.fwd
}

// resolve follows replacements in a remap table; fwd[t] == t means t
// stays.
func resolve(fwd []Target, t Target) Target {
	for !t.IsLeaf() && fwd[t] != t {
		t = fwd[t]
	}
	return t
}

// collapseTrivial removes nodes whose yes and no branches agree.
func (pr *Program) collapseTrivial(s *optScratch) bool {
	fwd := s.remapTable(len(pr.Exprs))
	changed := false
	for i := range pr.Exprs {
		e := &pr.Exprs[i]
		if e.Yes == e.No {
			fwd[i] = e.Yes
			changed = true
		}
	}
	if !changed {
		return false
	}
	pr.Entry = resolve(fwd, pr.Entry)
	for i := range pr.Exprs {
		pr.Exprs[i].Yes = resolve(fwd, pr.Exprs[i].Yes)
		pr.Exprs[i].No = resolve(fwd, pr.Exprs[i].No)
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
func (pr *Program) mergeCommonSubtrees(s *optScratch) bool {
	// Process in reverse index order; the builder and renumber keep
	// edges forward, so children have higher indices than parents.
	if s.canon == nil {
		s.canon = make(map[nodeKey]Target, len(pr.Exprs))
	}
	clear(s.canon)
	fwd := s.remapTable(len(pr.Exprs))
	changed := false
	for i := len(pr.Exprs) - 1; i >= 0; i-- {
		e := &pr.Exprs[i]
		e.Yes = resolve(fwd, e.Yes)
		e.No = resolve(fwd, e.No)
		k := nodeKey{e.Offset, e.Mask, e.Value, e.Yes, e.No}
		if prev, ok := s.canon[k]; ok {
			fwd[i] = prev
			changed = true
		} else {
			s.canon[k] = Target(i)
		}
	}
	pr.Entry = resolve(fwd, pr.Entry)
	for i := range pr.Exprs {
		pr.Exprs[i].Yes = resolve(fwd, pr.Exprs[i].Yes)
		pr.Exprs[i].No = resolve(fwd, pr.Exprs[i].No)
	}
	return changed
}

// renumber removes unreachable nodes and renumbers the rest in
// topological order from the entry, restoring the forward-edge
// invariant (DFS preorder would not: a diamond's far corner can receive
// a lower number than one of its predecessors). The order depends only
// on the diagram's shape, so renumbering a renumbered program changes
// nothing.
func (pr *Program) renumber() {
	var s optScratch
	s.renumber(pr)
}

func (s *optScratch) renumber(pr *Program) {
	n := len(pr.Exprs)
	if cap(s.visited) < n {
		s.visited = make([]bool, n)
		s.post = make([]int, 0, n)
		s.newIdx = make([]Target, n)
	}
	s.visited = s.visited[:n]
	clear(s.visited)
	s.post = s.post[:0]
	s.visit(pr.Exprs, pr.Entry)
	// Reverse postorder is a topological order. When it is already the
	// index order (and nothing is unreachable) there is nothing to move.
	post := s.post
	m := len(post)
	identity := m == n
	for i := 0; i < m && identity; i++ {
		identity = post[i] == m-1-i
	}
	if identity {
		return
	}
	newIdx := s.newIdx[:n]
	for i, old := range post {
		newIdx[old] = Target(m - 1 - i)
	}
	mapT := func(t Target) Target {
		if t.IsLeaf() {
			return t
		}
		return newIdx[t]
	}
	exprs := s.spare
	if cap(exprs) < m {
		exprs = make([]Expr, m)
	}
	exprs = exprs[:m]
	for i, old := range post {
		e := pr.Exprs[old]
		e.Yes = mapT(e.Yes)
		e.No = mapT(e.No)
		exprs[m-1-i] = e
	}
	s.spare = pr.Exprs
	pr.Exprs = exprs
	pr.Entry = mapT(pr.Entry)
}

// visit appends t's unvisited subtree to s.post in postorder, yes
// branch first.
func (s *optScratch) visit(exprs []Expr, t Target) {
	if t.IsLeaf() || s.visited[t] {
		return
	}
	s.visited[t] = true
	s.visit(exprs, exprs[t].Yes)
	s.visit(exprs, exprs[t].No)
	s.post = append(s.post, int(t))
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
