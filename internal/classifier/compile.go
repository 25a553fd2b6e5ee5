package classifier

import (
	"encoding/binary"
	"fmt"
)

// Compiled is the click-fastclassifier form of a decision tree. Go has
// no runtime code generation, so "compiling" means lowering the tree
// into a closure DAG with the offsets, masks, and comparison values
// captured as constants — no Expr array traversal and no decision-tree
// data to fetch, which is the optimization's point: the tree's memory
// traffic disappears and each step is a compare-and-jump (Figure 3b).
// Edges point forward, so the lowering is one pass in reverse index
// order: one closure per node and variant, shared where the diagram
// shares the node, and one per distinct leaf. The equivalent generated
// source text (see GenerateGoSource) is what the tool writes into the
// output archive.
type Compiled struct {
	prog      *Program
	checked   matchFn
	unchecked matchFn
}

// matchFn advances classification; steps counts nodes visited so the
// cost model can charge compiled execution per step.
type matchFn func(data []byte, steps int) (Target, int)

// Compile lowers a program. The program should already be optimized;
// it must keep Validate's forward-edge invariant, which Compile checks:
// a node that references itself, an earlier node or a node past the end
// panics here rather than at its first match.
func Compile(pr *Program) *Compiled {
	c := &Compiled{prog: pr}
	leaves := make([]matchFn, pr.NOutputs+1)
	c.unchecked = c.lower(false, leaves)
	c.checked = c.lower(true, leaves)
	return c
}

// Program returns the compiled program's tree.
func (c *Compiled) Program() *Program { return c.prog }

// lower builds one variant's closure DAG in reverse index order: edges
// point forward, so both children of a node are lowered before it.
// leaves holds one closure per leaf target, indexed by -t-1 (drop, then
// the ports in order) and shared by both variants.
func (c *Compiled) lower(checked bool, leaves []matchFn) matchFn {
	exprs := c.prog.Exprs
	fns := make([]matchFn, len(exprs))
	target := func(from int, t Target) matchFn {
		if !t.IsLeaf() {
			if int(t) <= from || int(t) >= len(exprs) {
				panic(fmt.Sprintf("classifier: Compile: edge %d -> %d is not forward in a %d-node program", from, int(t), len(exprs)))
			}
			return fns[t]
		}
		i := -int(t) - 1
		if i < len(leaves) && leaves[i] != nil {
			return leaves[i]
		}
		leaf := func(_ []byte, steps int) (Target, int) { return t, steps }
		if i < len(leaves) { // a port past NOutputs (Validate rejects it) is not cached
			leaves[i] = leaf
		}
		return leaf
	}
	for i := len(exprs) - 1; i >= 0; i-- {
		e := &exprs[i]
		fns[i] = lowerNode(int(e.Offset), e.Mask, e.Value, target(i, e.Yes), target(i, e.No), checked)
	}
	return target(-1, c.prog.Entry)
}

// lowerNode is one node's closure: a compare-and-jump on the word at
// off, with or without the short-packet check.
func lowerNode(off int, mask, value uint32, yes, no matchFn, checked bool) matchFn {
	if checked {
		return func(d []byte, steps int) (Target, int) {
			steps++
			var w uint32
			if off+4 <= len(d) {
				w = binary.BigEndian.Uint32(d[off:])
			} else {
				missing := off + 4 - len(d)
				if missing > 4 {
					missing = 4
				}
				var missMask uint32
				for i := 0; i < missing; i++ {
					missMask |= 0xff << (8 * i)
				}
				if mask&missMask != 0 {
					return no(d, steps)
				}
				w = loadWord(d, int32(off))
			}
			if w&mask == value {
				return yes(d, steps)
			}
			return no(d, steps)
		}
	}
	return func(d []byte, steps int) (Target, int) {
		steps++
		if binary.BigEndian.Uint32(d[off:])&mask == value {
			return yes(d, steps)
		}
		return no(d, steps)
	}
}

// Match classifies data: output port, matched (false = drop), and the
// number of compiled steps executed.
func (c *Compiled) Match(data []byte) (port int, matched bool, steps int) {
	var t Target
	if len(data) >= c.prog.SafeLength {
		t, steps = c.unchecked(data, 0)
	} else {
		t, steps = c.checked(data, 0)
	}
	p, ok := t.Port()
	return p, ok, steps
}
