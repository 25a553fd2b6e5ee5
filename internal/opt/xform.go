package opt

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/lang"
)

// Xform is the pattern-replacement engine of click-xform (§6.2): it
// searches a configuration for occurrences of pattern subgraphs and
// replaces each with the corresponding replacement subgraph, repeating
// until no pattern matches. Patterns and replacements are written as
// compound element classes; a class named N pairs with the class named
// N_Replacement. Configuration arguments beginning with '$' are
// wildcards that bind the matched element's argument and may be used in
// replacement configurations.
//
// A pattern matches a subset of the configuration graph when the subset
// contains corresponding elements connected the same way, and
// connections into or out of the subset occur only at the places the
// pattern's input/output pseudoelements allow.
//
// Matching is subgraph isomorphism — NP-complete in general; like the
// tool, we implement Ullman's algorithm (refinement plus backtracking),
// which works well for the patterns and configurations seen in
// practice.

// PatternPair is one compiled pattern-replacement rule.
type PatternPair struct {
	Name        string
	Pattern     *graph.Router // with materialized input/output pseudoelements
	Replacement *graph.Router
}

// ParsePatterns compiles a pattern file: every elementclass N with a
// companion N_Replacement forms a pair, in source order.
func ParsePatterns(src, file string) ([]*PatternPair, error) {
	f, err := lang.Parse(src, file)
	if err != nil {
		return nil, err
	}
	defs := map[string]*lang.ClassDefStmt{}
	var order []string
	for _, st := range f.Stmts {
		if cd, ok := st.(*lang.ClassDefStmt); ok {
			if defs[cd.Name] == nil {
				defs[cd.Name] = cd // a redefinition does not replace the first
			}
			order = append(order, cd.Name)
		}
	}
	var pairs []*PatternPair
	for _, n := range order {
		repDef := defs[n+"_Replacement"]
		if strings.HasSuffix(n, "_Replacement") || repDef == nil {
			continue
		}
		pat, err := lang.ElaborateClassDef(defs[n], file)
		if err != nil {
			return nil, err
		}
		rep, err := lang.ElaborateClassDef(repDef, file)
		if err != nil {
			return nil, err
		}
		if err := validatePattern(pat, n); err != nil {
			return nil, err
		}
		pairs = append(pairs, &PatternPair{Name: n, Pattern: pat, Replacement: rep})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%s: no pattern/replacement pairs found", file)
	}
	return pairs, nil
}

func isPseudo(e *graph.Element) bool {
	return e.Class == lang.InputPseudoClass || e.Class == lang.OutputPseudoClass
}

func validatePattern(pat *graph.Router, name string) error {
	real := 0
	for _, i := range pat.LiveIndices() {
		if !isPseudo(pat.Element(i)) {
			real++
		}
	}
	if real == 0 {
		return fmt.Errorf("pattern %q has no concrete elements", name)
	}
	return nil
}

// bindings lists wildcard names ("$x") with the argument text each
// matched.
type bindings []binding

type binding struct{ name, text string }

func (b bindings) lookup(name string) (string, bool) {
	for _, x := range b {
		if x.name == name {
			return x.text, true
		}
	}
	return "", false
}

// configArgs memoizes elements' configurations split into trimmed
// arguments: one Xform run matches the same elements many times over,
// and no element's configuration changes during it.
type configArgs map[*graph.Element][]string

func (ca configArgs) of(e *graph.Element) []string {
	args, ok := ca[e]
	if !ok {
		args = lang.SplitConfig(e.Config)
		for i, a := range args {
			args[i] = strings.TrimSpace(a)
		}
		ca[e] = args
	}
	return args
}

// matchConfig matches a pattern element's configuration arguments
// against a graph element's, binding wildcards. Arguments must agree in
// count; a pattern argument "$name" binds (consistently across the
// whole match), anything else must match exactly after whitespace
// trimming. New bindings are appended to b, in its spare capacity if it
// has any, so the backtracking search uses b as a stack.
func matchConfig(pargs, gargs []string, b bindings) (bindings, bool) {
	if len(pargs) != len(gargs) {
		return nil, false
	}
	for i, pa := range pargs {
		ga := gargs[i]
		if strings.HasPrefix(pa, "$") && !strings.ContainsAny(pa, " \t") {
			if prev, ok := b.lookup(pa); !ok {
				b = append(b, binding{pa, ga})
			} else if prev != ga {
				return nil, false
			}
			continue
		}
		if pa != ga {
			return nil, false
		}
	}
	return b, true
}

// substBindings replaces bound wildcards in a replacement config.
func substBindings(cfg string, b bindings) string {
	args := lang.SplitConfig(cfg)
	for i, a := range args {
		a = strings.TrimSpace(a)
		if v, ok := b.lookup(a); ok {
			args[i] = v
		}
	}
	return lang.JoinConfig(args)
}

// match is one found occurrence.
type match struct {
	pair *PatternPair
	// m maps pattern element index -> graph element index (concrete
	// elements only).
	m map[int]int
	b bindings
}

// xformRun is what one Xform run keeps between matches.
type xformRun struct {
	g *graph.Router
	// tabu holds (pair, element name): elements created by a
	// replacement are never re-matched by the same pair, to guarantee
	// termination.
	tabu map[[2]string]bool
	args configArgs
	// byClass lists element indices by class in ascending order, dead
	// ones included; its first indexed elements of g are in it.
	byClass map[string][]int
	indexed int
}

// ofClass returns the indices of g's elements of the class, in order.
func (x *xformRun) ofClass(class string) []int {
	for ; x.indexed < len(x.g.Elements); x.indexed++ {
		c := x.g.Elements[x.indexed].Class
		x.byClass[c] = append(x.byClass[c], x.indexed)
	}
	return x.byClass[class]
}

// findMatch searches g for an occurrence of the pattern, excluding
// tabu elements.
func (x *xformRun) findMatch(pair *PatternPair) *match {
	g, args := x.g, x.args
	pat := pair.Pattern
	var pelems []int
	for _, i := range pat.LiveIndices() {
		if !isPseudo(pat.Element(i)) {
			pelems = append(pelems, i)
		}
	}

	// Ullman candidate sets: class equality and config compatibility.
	cands := make([][]int, len(pelems))
	scratch := make(bindings, 0, 8)
	for pi, p := range pelems {
		pe := pat.Element(p)
		for _, gidx := range x.ofClass(pe.Class) {
			ge := g.Element(gidx)
			if g.Dead(gidx) || x.tabu[[2]string{pair.Name, ge.Name}] {
				continue
			}
			if _, ok := matchConfig(args.of(pe), args.of(ge), scratch[:0]); !ok {
				continue
			}
			cands[pi] = append(cands[pi], gidx)
		}
		if len(cands[pi]) == 0 {
			return nil
		}
	}

	// Ullman refinement: a candidate g for pattern element p must have,
	// for every pattern edge p->p' (or p'<-p), a graph edge to some
	// candidate of p'. Iterate to fixpoint.
	patIdx := make([]int, len(pat.Elements)) // pattern elem -> index in pelems, -1 for pseudo
	for i := range patIdx {
		patIdx[i] = -1
	}
	for pi, p := range pelems {
		patIdx[p] = pi
	}
	inCand := make([][]bool, len(pelems))
	rebuild := func() {
		for pi := range cands {
			if inCand[pi] == nil {
				inCand[pi] = make([]bool, len(g.Elements))
			}
			clear(inCand[pi])
			for _, c := range cands[pi] {
				inCand[pi][c] = true
			}
		}
	}
	rebuild()
	for changed := true; changed; {
		changed = false
		for pi, p := range pelems {
			kept := cands[pi][:0]
		cand:
			for _, gc := range cands[pi] {
				for _, pc := range pat.ConnsFrom(p) {
					ti := patIdx[pc.To]
					if ti < 0 {
						continue // edge to pseudo
					}
					found := false
					for _, gcc := range g.OutputConns(gc, pc.FromPort) {
						if gcc.ToPort == pc.ToPort && inCand[ti][gcc.To] {
							found = true
							break
						}
					}
					if !found {
						continue cand
					}
				}
				for _, pc := range pat.ConnsTo(p) {
					fi := patIdx[pc.From]
					if fi < 0 {
						continue
					}
					found := false
					for _, gcc := range g.InputConns(gc, pc.ToPort) {
						if gcc.FromPort == pc.FromPort && inCand[fi][gcc.From] {
							found = true
							break
						}
					}
					if !found {
						continue cand
					}
				}
				kept = append(kept, gc)
			}
			if len(kept) != len(cands[pi]) {
				cands[pi] = kept
				changed = true
				if len(kept) == 0 {
					return nil
				}
			}
		}
		if changed {
			rebuild()
		}
	}

	// Backtracking search over refined candidates.
	assign := make([]int, len(pat.Elements)) // pattern elem -> graph elem
	used := make([]bool, len(g.Elements))    // graph elems already assigned
	var try func(k int, b bindings) *match
	try = func(k int, b bindings) *match {
		if k == len(pelems) {
			return verifyMatch(g, pair, pelems, assign, used, b)
		}
		p := pelems[k]
		pe := pat.Element(p)
		for _, gc := range cands[k] {
			if used[gc] {
				continue
			}
			nb, ok := matchConfig(args.of(pe), args.of(g.Element(gc)), b)
			if !ok {
				continue
			}
			assign[p] = gc
			used[gc] = true
			if mm := try(k+1, nb); mm != nil {
				return mm
			}
			used[gc] = false
		}
		return nil
	}
	return try(0, scratch[:0])
}

// verifyMatch checks the full structural conditions for an assignment:
// every pattern-internal connection exists in the graph, and every
// graph connection incident to a matched element is licensed — either
// it corresponds to a pattern-internal connection, or the pattern
// routes that port to an input/output pseudoelement. inSet marks the
// matched graph elements.
func verifyMatch(g *graph.Router, pair *PatternPair, pelems, assign []int, inSet []bool, b bindings) *match {
	pat := pair.Pattern

	// Pattern-internal edges must exist (refinement checked per-edge
	// reachability into candidate sets, not the final assignment).
	patConnSet := map[graph.Connection]bool{}
	borderIn := map[[2]int]bool{}  // (graph elem, port) allowed external input
	borderOut := map[[2]int]bool{} // (graph elem, port) allowed external output
	for _, pc := range pat.Conns {
		fromPseudo := isPseudo(pat.Element(pc.From))
		toPseudo := isPseudo(pat.Element(pc.To))
		switch {
		case fromPseudo && toPseudo:
			return nil // degenerate pattern
		case fromPseudo:
			borderIn[[2]int{assign[pc.To], pc.ToPort}] = true
		case toPseudo:
			borderOut[[2]int{assign[pc.From], pc.FromPort}] = true
		default:
			gc := graph.Connection{From: assign[pc.From], FromPort: pc.FromPort, To: assign[pc.To], ToPort: pc.ToPort}
			patConnSet[gc] = true
			if !slices.Contains(g.OutputConns(gc.From, gc.FromPort), gc) {
				return nil
			}
		}
	}

	// License check for all graph connections touching the set: those
	// leaving a matched element, and those entering one from outside.
	for _, p := range pelems {
		for _, c := range g.ConnsFrom(assign[p]) {
			out := borderOut[[2]int{c.From, c.FromPort}]
			if !inSet[c.To] {
				if !out {
					return nil
				}
				continue
			}
			// An internal connection the pattern doesn't mention is
			// allowed only if the pattern exposes both endpoints as
			// border ports (it then survives as an external path).
			if !patConnSet[c] && !(out && borderIn[[2]int{c.To, c.ToPort}]) {
				return nil
			}
		}
		for _, c := range g.ConnsTo(assign[p]) {
			if !inSet[c.From] && !borderIn[[2]int{c.To, c.ToPort}] {
				return nil
			}
		}
	}
	m := &match{pair: pair, m: map[int]int{}, b: b}
	for _, p := range pelems {
		m.m[p] = assign[p]
	}
	return m
}

// applyMatch splices the replacement into g, returning the names of the
// created elements. A replacement element that shares its name with a
// pattern element inherits the matched graph element's name (and thus
// its identity for later tools — the ARP-elimination patterns use this
// to keep RouterLinks addressable by click-uncombine).
func applyMatch(g *graph.Router, mm *match) []string {
	pat, rep := mm.pair.Pattern, mm.pair.Replacement

	// Pattern element name -> matched graph element name, for name
	// inheritance.
	patNameOf := map[string]string{}
	for p, gi := range mm.m {
		patNameOf[pat.Element(p).Name] = g.Element(gi).Name
	}

	// Border ports of the pattern, mapped onto matched graph elements.
	patBorderIn := map[[2]int]int{}  // (graph elem, port) -> pseudo input port
	patBorderOut := map[[2]int]int{} // (graph elem, port) -> pseudo output port
	for _, pc := range pat.Conns {
		if isPseudo(pat.Element(pc.From)) {
			patBorderIn[[2]int{mm.m[pc.To], pc.ToPort}] = pc.FromPort
		}
		if isPseudo(pat.Element(pc.To)) {
			patBorderOut[[2]int{mm.m[pc.From], pc.FromPort}] = pc.ToPort
		}
	}

	inSet := make([]bool, len(g.Elements))
	for _, gi := range mm.m {
		inSet[gi] = true
	}

	// Snapshot external attachment points before removing anything.
	type attach struct {
		elem, port int // external endpoint
		pseudoPort int // pattern border port
	}
	var extIn, extOut []attach // external conns into/out of the set
	type bridge struct{ outPort, inPort int }
	var bridges []bridge // set-internal conns licensed as external paths
	for _, c := range g.Conns {
		fromIn, toIn := inSet[c.From], inSet[c.To]
		switch {
		case fromIn && toIn:
			op, okO := patBorderOut[[2]int{c.From, c.FromPort}]
			ip, okI := patBorderIn[[2]int{c.To, c.ToPort}]
			if okO && okI {
				bridges = append(bridges, bridge{op, ip})
			}
		case toIn:
			if ip, ok := patBorderIn[[2]int{c.To, c.ToPort}]; ok {
				extIn = append(extIn, attach{c.From, c.FromPort, ip})
			}
		case fromIn:
			if op, ok := patBorderOut[[2]int{c.From, c.FromPort}]; ok {
				extOut = append(extOut, attach{c.To, c.ToPort, op})
			}
		}
	}

	// Remove the matched elements first so inherited names are free.
	for _, gi := range mm.m {
		g.RemoveElement(gi)
	}

	// Instantiate the replacement.
	type end struct{ elem, port int }
	repInputs := map[int][]end{}
	repOutputs := map[int][]end{}
	created := map[int]int{}
	var createdNames []string
	for _, ri := range rep.LiveIndices() {
		re := rep.Element(ri)
		if isPseudo(re) {
			continue
		}
		cfg := substBindings(re.Config, mm.b)
		name := ""
		if inherited, ok := patNameOf[re.Name]; ok {
			name = inherited
		}
		idx := g.MustAddElement(name, re.Class, cfg, "click-xform:"+mm.pair.Name)
		created[ri] = idx
		createdNames = append(createdNames, g.Element(idx).Name)
	}
	for _, rc := range rep.Conns {
		fromPseudo := isPseudo(rep.Element(rc.From))
		toPseudo := isPseudo(rep.Element(rc.To))
		switch {
		case fromPseudo:
			repInputs[rc.FromPort] = append(repInputs[rc.FromPort], end{created[rc.To], rc.ToPort})
		case toPseudo:
			repOutputs[rc.ToPort] = append(repOutputs[rc.ToPort], end{created[rc.From], rc.FromPort})
		default:
			g.Connect(created[rc.From], rc.FromPort, created[rc.To], rc.ToPort)
		}
	}

	// Reattach the outside world through the replacement's border.
	for _, a := range extIn {
		for _, t := range repInputs[a.pseudoPort] {
			g.Connect(a.elem, a.port, t.elem, t.port)
		}
	}
	for _, a := range extOut {
		for _, s := range repOutputs[a.pseudoPort] {
			g.Connect(s.elem, s.port, a.elem, a.port)
		}
	}
	for _, br := range bridges {
		for _, s := range repOutputs[br.outPort] {
			for _, t := range repInputs[br.inPort] {
				g.Connect(s.elem, s.port, t.elem, t.port)
			}
		}
	}
	return createdNames
}

// Xform applies pattern pairs to the configuration until none matches,
// returning the number of replacements performed. Elements created by a
// pair are excluded from re-matching by that same pair, which, with the
// fixpoint bound, guarantees termination.
func Xform(g *graph.Router, pairs []*PatternPair) int {
	applied := 0
	patternCounts := map[string]int{}
	x := &xformRun{g: g, tabu: map[[2]string]bool{}, args: configArgs{}, byClass: map[string][]int{}}
	const maxApplications = 10000
	for applied < maxApplications {
		var mm *match
		for _, pair := range pairs {
			if mm = x.findMatch(pair); mm != nil {
				break
			}
		}
		if mm == nil {
			break
		}
		for _, name := range applyMatch(g, mm) {
			x.tabu[[2]string{mm.pair.Name, name}] = true
		}
		patternCounts[mm.pair.Name]++
		applied++
	}
	attachReport(g, &PassReport{
		Pass:          "xform",
		Replacements:  applied,
		PatternCounts: patternCounts,
	})
	return applied
}
