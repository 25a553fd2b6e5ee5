package opt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
)

// Fuse applies whole-path classifier fusion: it walks the push graph,
// collects maximal runs of consecutive classification-only elements
// (classifiers, filters, generated fast/fused classifiers, and the
// StaticSwitches between them), composes each run's decision trees into
// one program, canonicalizes the composition into a forwarding decision
// diagram with shared subtrees (classifier.SpecializeFDD), and replaces
// the run with a single generated FusedClassifier_N element whose
// output ports are the run's exit edges. N inspections of the packet
// become one multi-way dispatch, and tests an upstream stage already
// decided vanish from the downstream diagram.
//
// The pass follows the fastclassifier/devirtualize conventions: the
// generated class sources and a machine-readable program list ride in
// the configuration archive (package "fuse"), diagnostics go to
// reports/fuse, and the rewritten configuration survives an
// unparse/re-parse round trip. Fusing a StaticSwitch freezes its
// configured port into the diagram, exactly as devirtualization freezes
// a class: re-optimize after changing the switch.
//
// Like the other passes, Fuse analyzes against the supplied registry,
// which must already include archive-generated classes (_dvN, _fcN,
// FusedClassifier_N) — tool.ReadConfig arranges this via
// InstallArchive — so fusion composes with fastclassifier and
// devirtualize output in either order.
func Fuse(g *graph.Router, reg *core.Registry) error {
	report := &PassReport{Pass: "fuse"}

	// Stage 1: which live elements can be a fusion stage? The answer
	// depends on the class alone, so each class is asked once.
	fusable := map[int]bool{}
	stageClass := map[string]bool{}
	for _, i := range g.LiveIndices() {
		class := g.Element(i).Class
		ok, seen := stageClass[class]
		if !seen {
			ok = isFuseStage(class, reg)
			stageClass[class] = ok
		}
		fusable[i] = ok
	}

	// Stage 2: the absorption forest. Edge (u,p)->d is absorbable when
	// both ends are fusable and d's sole input is exactly that edge into
	// its port 0 — then every packet entering d came through u's port p
	// and the pair can be composed. Each element is absorbed at most
	// once; the sole-input requirement keeps absorption chains acyclic
	// from any root. Iteration order (live order, ascending ports) makes
	// the forest deterministic.
	absorb := map[[2]int]int{}
	absorbed := map[int]bool{}
	for _, u := range g.LiveIndices() {
		if !fusable[u] {
			continue
		}
		for p := 0; p < g.NOutputs(u); p++ {
			outs := g.OutputConns(u, p)
			if len(outs) != 1 {
				continue
			}
			d := outs[0].To
			if d == u || !fusable[d] || absorbed[d] || outs[0].ToPort != 0 {
				continue
			}
			if len(g.ConnsTo(d)) != 1 {
				continue
			}
			absorb[[2]int{u, p}] = d
			absorbed[d] = true
		}
	}

	// Roots: fusable, not themselves absorbed, absorbing at least one
	// element (a run of one is just the element itself — skip).
	var roots []int
	for _, u := range g.LiveIndices() {
		if !fusable[u] || absorbed[u] {
			continue
		}
		for p := 0; p < g.NOutputs(u); p++ {
			if _, ok := absorb[[2]int{u, p}]; ok {
				roots = append(roots, u)
				break
			}
		}
	}
	if len(roots) == 0 {
		attachReport(g, report)
		return nil
	}

	// Existing generated classes (from a previous fuse run riding in the
	// archive): reuse their names for equal programs and continue the
	// numbering after them.
	type genClass struct {
		name     string
		program  *classifier.Program
		existing bool
		used     bool
	}
	var gens []*genClass
	next := 0
	if data, ok := g.Archive["fuse/programs"]; ok {
		prev, err := parseProgramsArchive(data)
		if err != nil {
			return fmt.Errorf("opt: fuse: %v", err)
		}
		for _, np := range prev {
			gens = append(gens, &genClass{name: np.name, program: np.program, existing: true})
			var n int
			if _, err := fmt.Sscanf(np.name, "FusedClassifier_%d", &n); err == nil && n >= next {
				next = n + 1
			}
		}
	}

	// Stage 3: compose and rewrite each run. Optimize, SpecializeFDD and
	// the budget are a pure function of the spliced program, so a run
	// whose splice equals one already composed in this call reuses that
	// composition (the report still counts each run's nodes).
	type composition struct {
		spliced       *classifier.Program
		tree, diagram int
		gen           *genClass
	}
	var done []composition
	for _, root := range roots {
		var members []int
		var exits [][]graph.Connection

		// buildFused composes the run rooted at m bottom-up. Exit ports
		// are allocated globally across the run in DFS port order, so
		// the composed program's output numbering is deterministic. A
		// continuation's leaves are already final exit ports when its
		// Splice returns, which is exactly the contract Splice requires.
		var buildFused func(m int) (*classifier.Program, error)
		buildFused = func(m int) (*classifier.Program, error) {
			members = append(members, m)
			prog, err := fuseStageProgram(g, m, reg)
			if err != nil {
				return nil, fmt.Errorf("opt: fuse: element %q: %v", g.Element(m).Name, err)
			}
			cont := make([]*classifier.Program, prog.NOutputs)
			exitPort := make([]int, prog.NOutputs)
			for p := 0; p < prog.NOutputs; p++ {
				exitPort[p] = -1
				if d, ok := absorb[[2]int{m, p}]; ok {
					cp, err := buildFused(d)
					if err != nil {
						return nil, err
					}
					cont[p] = cp
					continue
				}
				conns := g.OutputConns(m, p)
				if len(conns) == 0 {
					continue // unconnected output: packets would drop
				}
				exitPort[p] = len(exits)
				exits = append(exits, conns)
			}
			return classifier.Splice(prog, cont, exitPort), nil
		}

		prog, err := buildFused(root)
		if err != nil {
			return err
		}
		prog.NOutputs = len(exits)
		var run *composition
		for k := range done {
			if done[k].spliced.Equal(prog) {
				run = &done[k]
				break
			}
		}
		if run == nil {
			spliced := prog.Clone()
			prog.Optimize()
			tree := len(prog.Exprs)
			// The FDD rebuild enumerates fact contexts; budget it so
			// adversarial compositions degrade to the (correct, merely
			// larger) optimized tree instead of blowing up the tool. Long
			// rule chains need quadratically many visits (each
			// pinned-field context walks the remaining chain deciding
			// tests), so the budget is quadratic with a hard cap; visits
			// are O(1) each, so the cap bounds the pass at roughly a
			// second per run.
			budget := 100_000 + tree*tree/4
			if budget > 100_000_000 {
				budget = 100_000_000
			}
			if prog.SpecializeFDD(budget) {
				prog.Optimize()
			}
			if err := prog.Validate(); err != nil {
				return fmt.Errorf("opt: fuse: composed program for %q invalid: %v", g.Element(root).Name, err)
			}
			// Runs with identical diagrams share a generated class.
			var gen *genClass
			for _, prev := range gens {
				if prev.program.Equal(prog) {
					gen = prev
					break
				}
			}
			if gen == nil {
				gen = &genClass{name: fmt.Sprintf("FusedClassifier_%d", next), program: prog}
				next++
				gens = append(gens, gen)
			}
			done = append(done, composition{spliced, tree, len(prog.Exprs), gen})
			run = &done[len(done)-1]
		}
		report.TreeNodes += run.tree
		report.DiagramNodes += run.diagram
		gen := run.gen
		gen.used = true
		if report.Classes == nil {
			report.Classes = map[string][]string{}
		}

		// Rewrite the graph: the root becomes the fused element (keeping
		// its name and, as documentation, its original configuration);
		// the other members disappear; the run's exit edges reattach to
		// the root's new output ports. Exit connections never target a
		// non-root member (members have a single, absorbed input), so
		// removal is safe.
		for _, m := range members {
			for _, c := range g.ConnsFrom(m) {
				g.Disconnect(c.From, c.FromPort, c.To, c.ToPort)
			}
			report.Classes[gen.name] = append(report.Classes[gen.name], g.Element(m).Name)
		}
		for _, m := range members[1:] {
			g.RemoveElement(m)
		}
		g.Element(root).Class = gen.name
		for xi, conns := range exits {
			for _, c := range conns {
				g.Connect(root, xi, c.To, c.ToPort)
			}
		}
		report.RunsFused++
		report.ElementsFused += len(members)
	}

	// Stage 4: archive members, dynamic specs, report.
	var programsDoc strings.Builder
	newSources := map[string][]byte{}
	generated := 0
	for _, gen := range gens {
		if !gen.existing && !gen.used {
			continue
		}
		// Every class the archive lists is registered, the existing
		// ones too, so reg holds the archive's program under each name
		// (ShareFusedPrograms reads them from reg).
		fmt.Fprintf(&programsDoc, "class %s\n%send\n", gen.name, gen.program.String())
		registerClassifierSpec(reg, gen.name, gen.program, true, nil)
		if !gen.existing {
			newSources["fuse/"+gen.name+".go"] = []byte(classifier.GenerateGoSourcePkg("fuse", gen.name, gen.program))
			generated++
		}
	}
	names := make([]string, 0, len(newSources))
	for n := range newSources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g.Archive[n] = newSources[n]
	}
	g.Archive["fuse/programs"] = []byte(programsDoc.String())
	g.Require("fuse")
	report.ClassesGenerated = generated
	attachReport(g, report)
	return nil
}

// isFuseStage reports whether elements of class are
// classification-only: their entire effect is routing the unmodified
// packet to an output chosen by header inspection, expressible as a
// decision-tree program. That is
// the generic classifiers (and their devirtualized variants), any
// generated class whose instances expose a decision tree (fast and
// fused classifiers), and StaticSwitch, whose constant choice is a
// degenerate program.
func isFuseStage(class string, reg *core.Registry) bool {
	if base := elements.StripDevirt(class); base == "StaticSwitch" || classifierClasses[base] {
		return true
	}
	return specProgram(reg, class) != nil
}

// specProgram returns the decision tree an instance of class exposes
// unconfigured — a generated fast or fused classifier's — or nil.
func specProgram(reg *core.Registry, class string) *classifier.Program {
	if spec, ok := reg.Lookup(class); ok && spec.Make != nil {
		if ph, ok := spec.Make().(interface{ Program() *classifier.Program }); ok {
			return ph.Program()
		}
	}
	return nil
}

// fuseStageProgram returns a private copy of element i's decision-tree
// program, with leaf ports in the element's own output space.
func fuseStageProgram(g *graph.Router, i int, reg *core.Registry) (*classifier.Program, error) {
	e := g.Element(i)
	if elements.StripDevirt(e.Class) == "StaticSwitch" {
		k, err := strconv.Atoi(strings.TrimSpace(e.Config))
		if err != nil {
			return nil, fmt.Errorf("bad StaticSwitch port %q", e.Config)
		}
		pr := &classifier.Program{Entry: classifier.Drop, NOutputs: g.NOutputs(i)}
		if k >= 0 && k < pr.NOutputs {
			pr.Entry = classifier.LeafPort(k)
		}
		return pr, nil
	}
	if classifierClasses[elements.StripDevirt(e.Class)] {
		return extractProgram(e.Class, e.Config, reg)
	}
	if pr := specProgram(reg, e.Class); pr != nil {
		return pr.Clone(), nil
	}
	return nil, fmt.Errorf("class %q does not expose a decision tree", e.Class)
}

// namedProgram is one entry of a "programs" archive member: the class
// name, the program's printed form (Program.String) and, once parsed,
// the program.
type namedProgram struct {
	name, text string
	program    *classifier.Program
}

// parseProgramsArchive parses a "programs" archive member.
func parseProgramsArchive(data []byte) ([]namedProgram, error) {
	progs, err := splitProgramsArchive(data)
	for i := 0; err == nil && i < len(progs); i++ {
		if progs[i].program, err = classifier.ParseProgram(progs[i].text); err != nil {
			err = fmt.Errorf("program %q: %v", progs[i].name, err)
		}
	}
	return progs, err
}

// splitProgramsArchive splits, without parsing the programs, the
// "class NAME\n<program>end\n" list format shared by the
// fastclassifier and fuse archive members.
func splitProgramsArchive(data []byte) ([]namedProgram, error) {
	var out []namedProgram
	text := string(data)
	for len(text) > 0 {
		text = strings.TrimLeft(text, "\n")
		if text == "" {
			break
		}
		nl := strings.IndexByte(text, '\n')
		if !strings.HasPrefix(text, "class ") || nl < 0 {
			return nil, fmt.Errorf("bad programs archive member")
		}
		name := strings.TrimSpace(text[len("class "):nl])
		text = text[nl+1:]
		end := strings.Index(text, "end\n")
		if end < 0 {
			end = len(text)
		}
		out = append(out, namedProgram{name: name, text: text[:end]})
		if end+4 <= len(text) {
			text = text[end+4:]
		} else {
			text = ""
		}
	}
	return out, nil
}
