package opt

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
)

// firstMatch is the matcher's oracle. It tries every injective
// assignment of live graph elements to the pattern's elements, in
// pelems order and each in ascending index order, and returns the first
// one verifyMatch accepts among those that agree in class and
// configuration and use no tabu element. Unlike findMatch it follows no
// edge.
func firstMatch(x *xformRun, pair *PatternPair) *match {
	g, pat := x.g, pair.Pattern
	assign := make([]int, len(pat.Elements))
	var matched []int
	var next func(k int, b bindings) *match
	next = func(k int, b bindings) *match {
		if k == len(pair.pelems) {
			return verifyMatch(g, pair, assign, matched, b)
		}
		p := pair.pelems[k]
		pe := pat.Element(p)
		for gi, ge := range g.Elements {
			if g.Dead(gi) || ge.Class != pe.Class || x.tabu[[2]string{pair.Name, ge.Name}] || slices.Contains(matched, gi) {
				continue
			}
			nb, ok := matchConfig(x.args.of(pe), x.args.of(ge), b)
			if !ok {
				continue
			}
			assign[p] = gi
			matched = append(matched, gi)
			if mm := next(k+1, nb); mm != nil {
				return mm
			}
			matched = matched[:k]
		}
		return nil
	}
	return next(0, nil)
}

// randomPatternText writes a pattern file with one pair: a connected
// pattern of one to four elements over the classes A, B and C, with
// wildcard configurations and border ports, and a trivial replacement.
func randomPatternText(rng *rand.Rand) string {
	configs := []string{"", "1", "2", "$x", "$y", "1, $x", "$x, $x", "$x, $y"}
	var b strings.Builder
	b.WriteString("elementclass P {\n")
	n := 1 + rng.Intn(4)
	for i := range n {
		fmt.Fprintf(&b, "e%d :: %c(%s);\n", i, 'A'+rng.Intn(3), configs[rng.Intn(len(configs))])
	}
	ports := 1 + rng.Intn(2) // one port makes fan-out common
	edge := func(from, to string) {
		fmt.Fprintf(&b, "%s [%d] -> [%d] %s;\n", from, rng.Intn(ports), rng.Intn(ports), to)
	}
	elem := func() string { return fmt.Sprintf("e%d", rng.Intn(n)) }
	for i := 1; i < n; i++ { // a spanning tree keeps the pattern connected
		if j := rng.Intn(i); rng.Intn(2) == 0 {
			edge(fmt.Sprintf("e%d", i), fmt.Sprintf("e%d", j))
		} else {
			edge(fmt.Sprintf("e%d", j), fmt.Sprintf("e%d", i))
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		edge(elem(), elem())
	}
	for k := rng.Intn(3); k > 0; k-- {
		edge("input", elem())
	}
	for k := rng.Intn(3); k > 0; k-- {
		edge(elem(), "output")
	}
	b.WriteString("}\nelementclass P_Replacement {\ninput -> Null -> output;\n}\n")
	return b.String()
}

// randomGraph builds a graph of at most 12 elements around the
// pattern: zero to three planted copies of it, with wildcards bound at
// random, some border ports attached and maybe one element shared, among elements of the
// pattern's classes and configurations, joined by random connections
// in random order. One element may be dead and some tabu.
func randomGraph(rng *rand.Rand, pair *PatternPair) *xformRun {
	const maxElements = 12
	pat := pair.Pattern
	values := []string{"1", "2"}
	// instance binds cfg's wildcards from bound, choosing a value at
	// random for each name not bound yet.
	instance := func(cfg string, bound map[string]string) string {
		args := lang.SplitConfig(cfg)
		for i, a := range args {
			if a = strings.TrimSpace(a); strings.HasPrefix(a, "$") {
				if _, ok := bound[a]; !ok {
					bound[a] = values[rng.Intn(len(values))]
				}
				args[i] = bound[a]
			}
		}
		return lang.JoinConfig(args)
	}
	g := graph.New()
	add := func(class, cfg string) int {
		return g.MustAddElement(fmt.Sprintf("g%d", len(g.Elements)), class, cfg, "")
	}
	addRandom := func() int {
		pe := pat.Element(pair.pelems[rng.Intn(len(pair.pelems))])
		return add(pe.Class, instance(pe.Config, map[string]string{}))
	}
	var conns []graph.Connection
	var at map[int]int // pattern element -> its copy in the graph
	bound := map[string]string{}
	for copies := rng.Intn(4); copies > 0 && len(g.Elements)+len(pair.pelems) <= maxElements; copies-- {
		for range rng.Intn(3) {
			addRandom()
		}
		// One binding per wildcard name across the copy, so the copy
		// matches unless something else gets in the way. Border ports
		// attach to elements added before it. A copy may share one
		// element, and so its bindings, with the copy before: that
		// element then has two sets of neighbours that may each
		// complete a match.
		outside, prev, shared := len(g.Elements), at, -1
		if prev != nil && rng.Intn(2) == 0 {
			shared = pair.pelems[rng.Intn(len(pair.pelems))]
		} else {
			bound = map[string]string{}
		}
		at = map[int]int{}
		for _, p := range pair.pelems {
			if p == shared {
				at[p] = prev[p]
				continue
			}
			at[p] = add(pat.Element(p).Class, instance(pat.Element(p).Config, bound))
		}
		for _, pc := range pat.Conns {
			from, fromIn := at[pc.From]
			to, toIn := at[pc.To]
			switch {
			case fromIn && toIn:
				conns = append(conns, graph.Connection{From: from, FromPort: pc.FromPort, To: to, ToPort: pc.ToPort})
			case outside == 0 || rng.Intn(2) == 0:
			case toIn:
				conns = append(conns, graph.Connection{From: rng.Intn(outside), FromPort: rng.Intn(2), To: to, ToPort: pc.ToPort})
			case fromIn:
				conns = append(conns, graph.Connection{From: from, FromPort: pc.FromPort, To: rng.Intn(outside), ToPort: rng.Intn(2)})
			}
		}
	}
	for len(g.Elements) < 2 || (len(g.Elements) < maxElements && rng.Intn(3) > 0) {
		addRandom()
	}
	for k := rng.Intn(len(g.Elements)/2 + 1); k > 0; k-- {
		conns = append(conns, graph.Connection{From: rng.Intn(len(g.Elements)), FromPort: rng.Intn(2), To: rng.Intn(len(g.Elements)), ToPort: rng.Intn(2)})
	}
	rng.Shuffle(len(conns), func(i, j int) { conns[i], conns[j] = conns[j], conns[i] })
	for _, c := range conns {
		g.Connect(c.From, c.FromPort, c.To, c.ToPort)
	}
	if rng.Intn(3) == 0 {
		g.RemoveElement(rng.Intn(len(g.Elements)))
	}
	x := newXformRun(g)
	for _, e := range g.Elements {
		if rng.Intn(8) == 0 {
			x.tabu[[2]string{pair.Name, e.Name}] = true
		}
	}
	return x
}

// checkFindMatch fails the test unless findMatch returns what the
// oracle does on x's graph. It reports whether there was a match.
func checkFindMatch(t *testing.T, x *xformRun, pair *PatternPair, src string) bool {
	t.Helper()
	want := firstMatch(x, pair)
	got := x.findMatch(pair)
	switch {
	case got == nil && want == nil:
		return false
	case got == nil || want == nil:
		t.Fatalf("findMatch found %v, the oracle %v\npattern:\n%s\ngraph:\n%s", got != nil, want != nil, src, x.g)
	case !maps.Equal(got.m, want.m) || !slices.Equal(got.b, want.b):
		t.Fatalf("findMatch matched %v %v, the oracle %v %v\npattern:\n%s\ngraph:\n%s", got.m, got.b, want.m, want.b, src, x.g)
	case !maps.Equal(got.borderIn, want.borderIn) || !maps.Equal(got.borderOut, want.borderOut):
		t.Fatalf("borders differ for one match\npattern:\n%s\ngraph:\n%s", src, x.g)
	}
	return true
}

// TestFindMatchAgreesWithOracle: over random patterns and random
// graphs, findMatch returns the first assignment the brute-force
// oracle accepts, and nil exactly when the oracle finds none.
func TestFindMatchAgreesWithOracle(t *testing.T) {
	const cases = 2000
	matched := 0
	for seed := int64(1); seed <= cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomPatternText(rng)
		pairs, err := ParsePatterns(src, "random")
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if checkFindMatch(t, randomGraph(rng, pairs[0]), pairs[0], src) {
			matched++
		}
	}
	// Both outcomes must be common, or the agreement shows little.
	if matched < cases/5 || matched > cases*4/5 {
		t.Errorf("%d of %d cases matched", matched, cases)
	}
}

// FuzzXformMatch checks findMatch against the oracle for any pattern
// file, each pair over a random graph built around it. Pairs of more
// than six elements are skipped to bound the oracle's search.
func FuzzXformMatch(f *testing.F) {
	// Blank lines separate the combo pairs; the first chunk is a
	// comment. Among seeds 0 to 15 each pair finds a match.
	for _, pair := range strings.Split(iprouter.ComboPatterns, "\n\n")[1:] {
		for seed := range int64(16) {
			f.Add(pair, seed)
		}
	}
	f.Add(randomPatternText(rand.New(rand.NewSource(1))), int64(1))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		pairs, err := ParsePatterns(src, "fuzz")
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		for _, pair := range pairs {
			if len(pair.pelems) <= 6 {
				checkFindMatch(t, randomGraph(rng, pair), pair, src)
			}
		}
	})
}

// BenchmarkXformScale times Xform with the combo patterns on the IP
// router of 4 to 64 interfaces, parsing each graph with the timer
// stopped. Each interface takes three replacements, so ns/replacement
// stays flat exactly when the pass is linear in them.
func BenchmarkXformScale(b *testing.B) {
	pairs, err := ParsePatterns(iprouter.ComboPatterns, "combo")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			text := iprouter.Config(iprouter.Interfaces(n))
			applied := 0
			for range b.N {
				b.StopTimer()
				g, err := lang.ParseRouter(text, "bench")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				applied = Xform(g, pairs)
			}
			if applied != 3*n {
				b.Fatalf("xform applied %d replacements, want %d", applied, 3*n)
			}
			b.ReportMetric(float64(applied), "replacements")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*applied), "ns/replacement")
		})
	}
}
