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
// Matching is subgraph isomorphism — NP-complete in general. The search
// backtracks over the pattern's elements, drawing each one's candidates
// from the graph neighbours of one already matched (along the pattern's
// own edges), or from its class when it has no matched neighbour. For
// the small connected patterns seen in practice that visits little more
// than the occurrences themselves.

// PatternPair is one compiled pattern-replacement rule.
type PatternPair struct {
	Name        string
	Pattern     *graph.Router // with materialized input/output pseudoelements
	Replacement *graph.Router
	// pelems lists the pattern's concrete elements, in LiveIndices
	// order: the order the search assigns them in.
	pelems []int
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
		var pelems []int
		for _, i := range pat.LiveIndices() {
			if !isPseudo(pat.Element(i)) {
				pelems = append(pelems, i)
			}
		}
		if len(pelems) == 0 {
			return nil, fmt.Errorf("pattern %q has no concrete elements", n)
		}
		pairs = append(pairs, &PatternPair{Name: n, Pattern: pat, Replacement: rep, pelems: pelems})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("%s: no pattern/replacement pairs found", file)
	}
	return pairs, nil
}

func isPseudo(e *graph.Element) bool {
	return e.Class == lang.InputPseudoClass || e.Class == lang.OutputPseudoClass
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
	// borderIn and borderOut map the pattern's border ports onto the
	// matched elements: (graph element, port) -> pseudoelement port.
	borderIn, borderOut map[[2]int]int
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

// newXformRun starts a run over g.
func newXformRun(g *graph.Router) *xformRun {
	return &xformRun{g: g, tabu: map[[2]string]bool{}, args: configArgs{}, byClass: map[string][]int{}}
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
// tabu elements. It backtracks over the pattern's elements in pelems
// order, trying each one's candidates in ascending order, so it returns
// the first assignment in that order that verifyMatch accepts.
func (x *xformRun) findMatch(pair *PatternPair) *match {
	g, args, pat, pelems := x.g, x.args, pair.Pattern, pair.pelems
	assign := make([]int, len(pat.Elements)) // pattern elem -> graph elem
	matched := make([]int, 0, len(pelems))   // graph elems of pelems[:k]
	var try func(k int, b bindings) *match
	try = func(k int, b bindings) *match {
		if k == len(pelems) {
			return verifyMatch(g, pair, assign, matched, b)
		}
		p := pelems[k]
		pe := pat.Element(p)
		for _, gc := range x.candidates(pair, k, assign) {
			ge := g.Element(gc)
			if ge.Class != pe.Class || g.Dead(gc) || x.tabu[[2]string{pair.Name, ge.Name}] || slices.Contains(matched, gc) {
				continue
			}
			nb, ok := matchConfig(args.of(pe), args.of(ge), b)
			if !ok {
				continue
			}
			assign[p] = gc
			matched = append(matched, gc)
			if mm := try(k+1, nb); mm != nil {
				return mm
			}
			matched = matched[:k]
		}
		return nil
	}
	return try(0, make(bindings, 0, 8))
}

// candidates returns, ascending and without repeats, the graph elements
// pattern element pelems[k] may match given assign for pelems[:k]: the
// far ends of its first connection to an element already matched, or
// every element of its class when it has none. Every assignment
// verifyMatch accepts has all of the pattern's internal connections, so
// the elements left out could complete no match.
func (x *xformRun) candidates(pair *PatternPair, k int, assign []int) []int {
	pat, p, before := pair.Pattern, pair.pelems[k], pair.pelems[:k]
	var ends []int
	for _, pc := range pat.ConnsFrom(p) {
		if slices.Contains(before, pc.To) {
			for _, c := range x.g.InputConns(assign[pc.To], pc.ToPort) {
				if c.FromPort == pc.FromPort {
					ends = append(ends, c.From)
				}
			}
			slices.Sort(ends)
			return slices.Compact(ends)
		}
	}
	for _, pc := range pat.ConnsTo(p) {
		if slices.Contains(before, pc.From) {
			for _, c := range x.g.OutputConns(assign[pc.From], pc.FromPort) {
				if c.ToPort == pc.ToPort {
					ends = append(ends, c.To)
				}
			}
			slices.Sort(ends)
			return slices.Compact(ends)
		}
	}
	return x.ofClass(pat.Element(p).Class)
}

// verifyMatch checks the full structural conditions for an assignment:
// every pattern-internal connection exists in the graph, and every
// graph connection incident to a matched element is licensed — either
// it corresponds to a pattern-internal connection, or the pattern
// routes that port to an input/output pseudoelement. matched lists the
// matched graph elements in pelems order.
func verifyMatch(g *graph.Router, pair *PatternPair, assign, matched []int, b bindings) *match {
	pat := pair.Pattern

	// Pattern-internal edges must exist (the search followed only one
	// edge per element).
	patConnSet := map[graph.Connection]bool{}
	borderIn := map[[2]int]int{}  // (graph elem, port) allowed external input
	borderOut := map[[2]int]int{} // (graph elem, port) allowed external output
	for _, pc := range pat.Conns {
		fromPseudo := isPseudo(pat.Element(pc.From))
		toPseudo := isPseudo(pat.Element(pc.To))
		switch {
		case fromPseudo && toPseudo:
			return nil // degenerate pattern
		case fromPseudo:
			borderIn[[2]int{assign[pc.To], pc.ToPort}] = pc.FromPort
		case toPseudo:
			borderOut[[2]int{assign[pc.From], pc.FromPort}] = pc.ToPort
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
	for _, gi := range matched {
		for _, c := range g.ConnsFrom(gi) {
			_, out := borderOut[[2]int{c.From, c.FromPort}]
			if !slices.Contains(matched, c.To) {
				if !out {
					return nil
				}
				continue
			}
			// An internal connection the pattern doesn't mention is
			// allowed only if the pattern exposes both endpoints as
			// border ports (it then survives as an external path).
			_, in := borderIn[[2]int{c.To, c.ToPort}]
			if !patConnSet[c] && !(out && in) {
				return nil
			}
		}
		for _, c := range g.ConnsTo(gi) {
			if _, in := borderIn[[2]int{c.To, c.ToPort}]; !in && !slices.Contains(matched, c.From) {
				return nil
			}
		}
	}
	m := &match{pair: pair, m: map[int]int{}, b: b, borderIn: borderIn, borderOut: borderOut}
	for k, p := range pair.pelems {
		m.m[p] = matched[k]
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
			op, okO := mm.borderOut[[2]int{c.From, c.FromPort}]
			ip, okI := mm.borderIn[[2]int{c.To, c.ToPort}]
			if okO && okI {
				bridges = append(bridges, bridge{op, ip})
			}
		case toIn:
			if ip, ok := mm.borderIn[[2]int{c.To, c.ToPort}]; ok {
				extIn = append(extIn, attach{c.From, c.FromPort, ip})
			}
		case fromIn:
			if op, ok := mm.borderOut[[2]int{c.From, c.FromPort}]; ok {
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
	x := newXformRun(g)
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
