package opt

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/lang"
)

// classifierClasses are the generic classification elements
// click-fastclassifier specializes (§4).
var classifierClasses = map[string]bool{
	"Classifier":   true,
	"IPClassifier": true,
	"IPFilter":     true,
}

// FastClassifier applies the click-fastclassifier optimization (§4):
//
//   - find the configuration's classification elements and combine
//     adjacent Classifiers to improve optimization possibilities;
//   - extract their decision trees by instantiating and configuring
//     each classifier on its own (so classifier syntax is implemented
//     exactly once, in the classifiers themselves) and reading the tree
//     the element built;
//   - generate one specialized, compiled class per distinct tree
//     (classifiers with identical trees share a class);
//   - rewrite the configuration to use the generated classes and attach
//     the generated source plus a machine-readable program list to the
//     archive.
func FastClassifier(g *graph.Router, reg *core.Registry) error {
	report := &PassReport{
		Pass:                "fastclassifier",
		ClassifiersCombined: combineAdjacentClassifiers(g, reg),
	}

	// Collect classifier elements in deterministic order.
	var targets []int
	for _, i := range g.LiveIndices() {
		if classifierClasses[g.Element(i).Class] {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		attachReport(g, report)
		return nil
	}

	type genClass struct {
		name    string
		program *classifier.Program
	}
	var gens []*genClass
	var programsDoc strings.Builder
	var sources = map[string][]byte{}
	classMembers := map[string][]string{}

	for _, i := range targets {
		e := g.Element(i)
		prog, err := extractProgram(e.Class, e.Config, reg)
		if err != nil {
			return fmt.Errorf("opt: fastclassifier: element %q: %v", e.Name, err)
		}
		// Classifiers with identical decision trees share a class.
		var gen *genClass
		for _, prev := range gens {
			if prev.program.Equal(prog) {
				gen = prev
				break
			}
		}
		if gen == nil {
			gen = &genClass{name: "FastClassifier@@" + e.Name, program: prog}
			gens = append(gens, gen)
			goName := strings.NewReplacer("@", "_", "/", "_").Replace(gen.name)
			sources["fastclassifier/"+goName+".go"] = []byte(classifier.GenerateGoSource(goName, prog))
			fmt.Fprintf(&programsDoc, "class %s\n%send\n", gen.name, prog.String())
		}
		e.Class = gen.name
		classMembers[gen.name] = append(classMembers[gen.name], e.Name)
		// The generated class ignores configuration; keep the original
		// rules as documentation, exactly as the C++ tool does.
	}

	for _, gen := range gens {
		registerClassifierSpec(reg, gen.name, gen.program, false, nil)
	}
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g.Archive[n] = sources[n]
	}
	g.Archive["fastclassifier/programs"] = []byte(programsDoc.String())
	g.Require("fastclassifier")
	report.ClassesGenerated = len(gens)
	report.ElementsSpecialized = len(targets)
	report.Classes = classMembers
	attachReport(g, report)
	return nil
}

// extractProgram instantiates a classifier on its own and reads back
// its decision tree, so classifier syntax is implemented exactly once,
// in the classifiers themselves (§4). The element is only configured:
// nothing of the input configuration runs, and no router is built
// around it.
//
// extractCache memoizes extracted programs for the builtin classifier
// classes, whose decision tree is a pure function of (class, config) —
// unlike archive-generated classes, whose meaning depends on the
// registry they ride in. It is what re-optimizing a configuration whose
// classifiers have been seen before costs nothing for (the management
// plane admits hundreds of those).
var extractCache sync.Map

func extractProgram(class, config string, reg *core.Registry) (*classifier.Program, error) {
	cacheKey := class + "\x00" + config
	if classifierClasses[class] {
		if v, ok := extractCache.Load(cacheKey); ok {
			return v.(*classifier.Program).Clone(), nil
		}
	}
	spec, ok := reg.Lookup(class)
	if !ok || spec.Make == nil {
		return nil, fmt.Errorf("unknown classifier class %q", class)
	}
	e := spec.Make()
	if err := e.Configure(lang.SplitConfig(config)); err != nil {
		return nil, err
	}
	progEl, ok := e.(interface{ Program() *classifier.Program })
	if !ok {
		return nil, fmt.Errorf("class %q does not expose a decision tree", class)
	}
	prog := progEl.Program() // the element's own, already optimized
	if classifierClasses[class] {
		extractCache.Store(cacheKey, prog.Clone())
	}
	return prog, nil
}

// registerClassifierSpec registers the dynamic spec of a generated
// classifier class over prog, a fused one if fused is set. compiled
// supplies the matcher; nil compiles prog when the first instance is
// configured. Fused classes keep the fastclassifier calibration: the
// fused matcher is byte-for-byte FastClassifier's, so Figure 8/9
// calibration is unchanged and the measured win comes from removed
// per-stage dispatch and the smaller diagram.
func registerClassifierSpec(reg *core.Registry, name string, prog *classifier.Program, fused bool, compiled func() *classifier.Compiled) {
	if compiled == nil {
		compiled = sync.OnceValue(func() *classifier.Compiled { return classifier.Compile(prog) })
	}
	newElem := elements.NewFastClassifier
	if fused {
		newElem = elements.NewFusedClassifier
	}
	nout := prog.NOutputs
	reg.RegisterDynamic(&core.Spec{
		Name:       name,
		Processing: "h/h",
		Ports: func(string) (graph.PortRange, graph.PortRange) {
			return graph.Exactly(1), graph.Exactly(nout)
		},
		Make:       newElem(prog, compiled),
		WorkCycles: fastClassWorkCycles,
	})
}

// fastClassWorkCycles mirrors elements' internal cost constant for
// generated classifier classes (compiled entry/exit).
const fastClassWorkCycles = 14

// combineAdjacentClassifiers merges Classifier pairs where one
// Classifier's output feeds another Classifier's sole input: the
// downstream tree is grafted onto the upstream leaf, widening
// optimization scope (§4 "combines adjacent Classifiers").
// Only raw Classifiers combine — IPClassifier operates on different
// packet framing. Returns the number of pairs merged.
func combineAdjacentClassifiers(g *graph.Router, reg *core.Registry) int {
	merged := 0
	for {
		combined := false
		for _, up := range g.LiveIndices() {
			if g.Element(up).Class != "Classifier" {
				continue
			}
			for p := 0; p < g.NOutputs(up); p++ {
				outs := g.OutputConns(up, p)
				if len(outs) != 1 {
					continue
				}
				down := outs[0].To
				if down == up || g.Element(down).Class != "Classifier" {
					continue
				}
				// The downstream classifier must be fed only by this
				// connection.
				if len(g.ConnsTo(down)) != 1 {
					continue
				}
				if mergeClassifierPair(g, up, p, down) {
					combined = true
					merged++
					break
				}
			}
			if combined {
				break
			}
		}
		if !combined {
			return merged
		}
	}
}

// mergeClassifierPair rewrites up so that its output p classifies with
// down's patterns: up's patterns stay, but the packets that matched
// pattern p continue into down's pattern list. Since Classifier configs
// are pattern lists, the merge concatenates pattern lists with the
// upstream pattern's terms prefixed onto each downstream pattern
// (logical AND), preserving first-match-wins order.
func mergeClassifierPair(g *graph.Router, up, p int, down int) bool {
	upArgs := lang.SplitConfig(g.Element(up).Config)
	downArgs := lang.SplitConfig(g.Element(down).Config)
	if p >= len(upArgs) {
		return false
	}
	// Safety: a packet matching up's pattern p but none of down's
	// patterns must still drop after the merge. That holds when down
	// ends in a catch-all (nothing falls through) or when p is up's
	// last pattern (fallthrough drops either way).
	if strings.TrimSpace(downArgs[len(downArgs)-1]) != "-" && p != len(upArgs)-1 {
		return false
	}
	prefix := strings.TrimSpace(upArgs[p])
	if prefix == "-" {
		prefix = ""
	}
	// The merged element's pattern list keeps first-match-wins order:
	// up's pre-p patterns, then down's patterns each guarded by up's
	// pattern p (conjunction by term concatenation), then up's post-p
	// patterns.
	var newArgs []string
	type portRef struct{ elem, port int }
	newPortOf := map[portRef]int{}
	appendPattern := func(pat string, ref portRef) {
		newArgs = append(newArgs, pat)
		newPortOf[ref] = len(newArgs) - 1
	}
	for q := 0; q < p; q++ {
		appendPattern(upArgs[q], portRef{up, q})
	}
	for q, d := range downArgs {
		merged := strings.TrimSpace(prefix + " " + strings.TrimSpace(d))
		if merged == "" {
			merged = "-"
		}
		// "A -" is not a valid term list; a catch-all term after real
		// terms is simply redundant.
		if merged != "-" && strings.HasSuffix(merged, " -") {
			merged = strings.TrimSpace(strings.TrimSuffix(merged, " -"))
		}
		appendPattern(merged, portRef{down, q})
	}
	for q := p + 1; q < len(upArgs); q++ {
		appendPattern(upArgs[q], portRef{up, q})
	}

	// Rewire: collect all old output connections, then reconnect.
	var rewires []struct {
		newPort int
		to      int
		toPort  int
	}
	for q := 0; q < len(upArgs); q++ {
		if q == p {
			continue
		}
		for _, c := range g.OutputConns(up, q) {
			rewires = append(rewires, struct {
				newPort int
				to      int
				toPort  int
			}{newPortOf[portRef{up, q}], c.To, c.ToPort})
		}
	}
	for q := 0; q < len(downArgs); q++ {
		for _, c := range g.OutputConns(down, q) {
			rewires = append(rewires, struct {
				newPort int
				to      int
				toPort  int
			}{newPortOf[portRef{down, q}], c.To, c.ToPort})
		}
	}
	// Drop all old connections from up and remove down.
	for _, c := range g.ConnsFrom(up) {
		g.Disconnect(c.From, c.FromPort, c.To, c.ToPort)
	}
	g.RemoveElement(down)
	g.Element(up).Config = lang.JoinConfig(newArgs)
	for _, rw := range rewires {
		g.Connect(up, rw.newPort, rw.to, rw.toPort)
	}
	return true
}

// InstallArchive registers all dynamic specifications an optimized
// configuration carries. The click driver calls this after unpacking a
// configuration archive, mirroring Click's compile-and-link of attached
// code before parsing the configuration (§5.2). Fused classes may wrap
// fastclassifier output, and a devirtualized classmap may reference
// fused classes: they install in that order.
func InstallArchive(g *graph.Router, reg *core.Registry) error {
	for _, pass := range []string{"fastclassifier", "fuse"} {
		data, ok := g.Archive[pass+"/programs"]
		if !ok {
			continue
		}
		progs, err := parseProgramsArchive(data)
		if err != nil {
			return fmt.Errorf("opt: %s: %v", pass, err)
		}
		for _, np := range progs {
			registerClassifierSpec(reg, np.name, np.program, pass == "fuse", nil)
		}
	}
	return InstallDevirtualized(g, reg)
}
