package classifier

import "encoding/binary"

// Compiled is the click-fastclassifier form of a decision tree. Go has
// no runtime code generation, so "compiling" means lowering the tree
// into a memoized closure DAG with the offsets, masks, and comparison
// values captured as constants — no Expr array traversal and no
// decision-tree data to fetch, which is the optimization's point: the
// tree's memory traffic disappears and each step is a compare-and-jump
// (Figure 3b). The equivalent generated source text (see
// GenerateGoSource) is what the tool writes into the output archive.
type Compiled struct {
	prog      *Program
	checked   matchFn
	unchecked matchFn
}

// matchFn advances classification; steps counts nodes visited so the
// cost model can charge compiled execution per step.
type matchFn func(data []byte, steps int) (Target, int)

// Compile lowers a program. The program should already be optimized.
func Compile(pr *Program) *Compiled {
	c := &Compiled{prog: pr}
	c.unchecked = c.compileTarget(pr.Entry, false, make(map[Target]matchFn, len(pr.Exprs)))
	c.checked = c.compileTarget(pr.Entry, true, make(map[Target]matchFn, len(pr.Exprs)))
	return c
}

// Program returns the compiled program's tree.
func (c *Compiled) Program() *Program { return c.prog }

func (c *Compiled) compileTarget(t Target, checked bool, memo map[Target]matchFn) matchFn {
	if t.IsLeaf() {
		return func(_ []byte, steps int) (Target, int) { return t, steps }
	}
	if fn, ok := memo[t]; ok {
		return fn
	}
	// Reserve the memo slot with an indirect trampoline so shared
	// subtrees and the memoization of forward references interact
	// correctly (trees are acyclic, so the indirection resolves before
	// any call).
	var self matchFn
	memo[t] = func(d []byte, s int) (Target, int) { return self(d, s) }
	e := c.prog.Exprs[t]
	yes := c.compileTarget(e.Yes, checked, memo)
	no := c.compileTarget(e.No, checked, memo)
	off, mask, value := int(e.Offset), e.Mask, e.Value
	if checked {
		self = func(d []byte, steps int) (Target, int) {
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
	} else {
		self = func(d []byte, steps int) (Target, int) {
			steps++
			if binary.BigEndian.Uint32(d[off:])&mask == value {
				return yes(d, steps)
			}
			return no(d, steps)
		}
	}
	memo[t] = self
	return self
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
