package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/lang"
	"repro/internal/simcpu"
)

// Router is an assembled, runnable router: the runtime counterpart of a
// configuration graph. Configurations are static (§5.1): a live Router
// never rewires an element; it changes only by hot-swap (install a new
// one) or by splicing a prebuilt subrouter in or taking one out
// (splice.go).
type Router struct {
	Graph    *graph.Router
	Registry *Registry
	CPU      *simcpu.CPU

	elements  []Element // parallel to Graph.Elements, whose name index finds them
	tasks     []task    // in element order
	dead      int       // removed element slots awaiting compaction (splice.go)
	deadTasks int       // removed task slots awaiting compaction
	proc      *graph.Processing
	env       map[string]interface{}
	burst     int
	tracer    *Tracer
	guards    *Generations
	// handlers holds each element's HandlerProvider list, made once at
	// assembly and read through the element's build router: kept out of
	// Base, whose size the forwarding path feels.
	handlers map[*Base][]Handler
}

// task is one entry of the run list: the scheduled element, its Base
// (which holds the asleep bit), its weight and its element index. A
// removed task is a tombstone that keeps only its element index.
type task struct {
	run    Task
	base   *Base
	weight int
	elem   int
}

// Env returns the named environment object supplied at build time, or
// nil.
func (rt *Router) Env(key string) interface{} { return rt.env[key] }

// BuildOptions control router assembly.
type BuildOptions struct {
	// CPU, when non-nil, attaches the cost model: packet transfers and
	// element work are charged to it.
	CPU *simcpu.CPU
	// Env carries named environment objects elements bind to at
	// initialization — the simulator registers its devices here under
	// "device:<name>" keys.
	Env map[string]interface{}
	// PerElementSites gives every element its own branch-predictor
	// call sites instead of sharing them per class. Real machines
	// share (one call instruction per class — the Figure 2 pathology);
	// this switch exists for the modeling ablation.
	PerElementSites bool
	// Burst is the router-wide default batch size for batch-capable
	// schedulable elements (PollDevice, ToDevice, Unqueue). 0 or 1
	// keeps the scalar per-packet path, which is what the calibrated
	// Figure 8/9 experiments run.
	Burst int
}

// Build assembles a runnable router from a configuration graph: a plan
// (NewPlan) instantiated once. The original graph is not modified.
func Build(g *graph.Router, reg *Registry, opts BuildOptions) (*Router, error) {
	pl, err := NewPlan(g, reg)
	if err != nil {
		return nil, err
	}
	return pl.instantiate(pl.Graph, pl.proc, nil, opts)
}

// Plan is what assembly derives from a configuration alone: the checked,
// compacted graph, its push/pull assignment, and per element the spec,
// split configuration and used port counts. It is never modified, so a
// configuration assembled many times (the plane's tenants) is planned once.
type Plan struct {
	Graph     *graph.Router
	reg       *Registry
	proc      *graph.Processing
	elems     []planElement
	nin, nout int // port totals
}

type planElement struct {
	spec      *Spec
	args      []string
	nin, nout int
}

// NewPlan clones, compacts, checks and resolves g for assembly.
func NewPlan(g *graph.Router, reg *Registry) (*Plan, error) {
	g = g.Clone()
	g.Compact()
	if errs := graph.CheckPorts(g, reg); len(errs) > 0 {
		return nil, fmt.Errorf("core: %v", errs[0])
	}
	proc, err := graph.AssignProcessing(g, reg)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Graph: g, reg: reg, proc: proc, elems: make([]planElement, len(g.Elements))}
	for i, ge := range g.Elements {
		spec, ok := reg.Lookup(ge.Class)
		if !ok {
			return nil, fmt.Errorf("core: unknown element class %q (element %q)", ge.Class, ge.Name)
		}
		if spec.Make == nil {
			return nil, fmt.Errorf("core: element class %q is specification-only (element %q)", ge.Class, ge.Name)
		}
		pl.elems[i] = planElement{spec, lang.SplitConfig(ge.Config), g.NInputs(i), g.NOutputs(i)}
		pl.nin, pl.nout = pl.nin+g.NInputs(i), pl.nout+g.NOutputs(i)
	}
	return pl, nil
}

// Instantiate assembles a fresh router from the plan, with prefix before
// every element name. scope returns nil to keep element i's arguments,
// or replacements, which the graph shows joined by ", ". The router
// shares the plan's connections and processing table, which a splice
// copies before appending.
func (pl *Plan) Instantiate(prefix string, scope func(i int, args []string) []string, opts BuildOptions) (*Router, error) {
	elems := make([]graph.Element, len(pl.elems))
	args := make([][]string, len(pl.elems))
	for i, ge := range pl.Graph.Elements {
		elems[i], args[i] = *ge, pl.elems[i].args
		elems[i].Name = prefix + ge.Name
		if a := scope(i, args[i]); a != nil {
			elems[i].Config, args[i] = strings.Join(a, ", "), a
		}
	}
	g := graph.FromElements(elems)
	g.Conns = slices.Clip(pl.Graph.Conns)
	return pl.instantiate(g, &graph.Processing{In: slices.Clip(pl.proc.In), Out: slices.Clip(pl.proc.Out)}, args, opts)
}

// instantiate makes, configures, wires and initializes the plan's
// elements as router g; args, when non-nil, replaces their arguments.
func (pl *Plan) instantiate(g *graph.Router, proc *graph.Processing, args [][]string, opts BuildOptions) (*Router, error) {
	rt := &Router{
		Graph:    g,
		Registry: pl.reg,
		CPU:      opts.CPU,
		proc:     proc,
		env:      opts.Env,
		burst:    opts.Burst,
		guards:   &Generations{},
	}

	// Instantiate and configure elements, cutting ports from two slabs.
	rt.elements = make([]Element, len(g.Elements))
	outs, ins := make([]OutPort, pl.nout), make([]InPort, pl.nin)
	for i, ge := range g.Elements {
		pe := &pl.elems[i]
		e := pe.spec.Make()
		b := e.base()
		b.name = ge.Name
		b.class = ge.Class
		b.router = rt
		b.cpu = opts.CPU
		b.workCycles = pe.spec.WorkCycles
		b.outputs, outs = outs[:pe.nout:pe.nout], outs[pe.nout:]
		b.inputs, ins = ins[:pe.nin:pe.nin], ins[pe.nin:]
		conf := pe.args
		if args != nil {
			conf = args[i]
		}
		if err := e.Configure(conf); err != nil {
			return nil, fmt.Errorf("core: %s (%q at %s): %v", ge.Class, ge.Name, ge.Landmark, err)
		}
		b.pusher, _ = e.(BatchPusher)
		b.puller, _ = e.(BatchPuller)
		if a, ok := e.(SimpleAction); ok {
			own := ""
			if b.pusher != nil {
				own = "PushBatch"
			} else if b.puller != nil {
				own = "PullBatch"
			}
			if own != "" {
				return nil, fmt.Errorf("core: %s (%q): implements SimpleAction and its own %s; write one", ge.Class, ge.Name, own)
			}
			b.action = a
			b.pusher, b.puller = derivedBatch{b}, derivedBatch{b}
		}
		if b.pusher == nil {
			b.pusher = noTransfer{b}
		}
		if b.puller == nil {
			b.puller = noTransfer{b}
		}
		rt.elements[i] = e
	}

	// Wire connections. A push connection binds the source's output
	// port to the target; a pull connection binds the target's input
	// port to the source. A port of a devirtualized class is marked
	// direct, which the cost model charges as a direct call. Call sites
	// and targets exist for the cost model alone.
	var sites *simcpu.Sites
	if opts.CPU != nil {
		sites = simcpu.NewSites()
	}
	siteOf := func(i int) string {
		if opts.PerElementSites {
			// Call sites become per-element; the call targets are
			// still the per-class handler functions.
			return g.Elements[i].Name
		}
		return g.Elements[i].Class
	}
	for _, c := range g.Conns {
		src, dst := rt.elements[c.From], rt.elements[c.To]
		out := src.base().Output(c.FromPort)
		in := dst.base().Input(c.ToPort)
		out.connected, in.connected = true, true
		if proc.OutputKind(c.From, c.FromPort) == graph.Push {
			out.target = dst
			out.targetPort = c.ToPort
			out.cpu = opts.CPU
			out.owner = src.base()
			out.peer = dst.base()
			if sites != nil {
				out.site, out.targetID = sites.Site(siteOf(c.From), c.FromPort, true), sites.Target(g.Elements[c.To].Class)
			}
			out.direct = pl.elems[c.From].spec.Devirtualized
		} else {
			in.source = src
			in.sourcePort = c.FromPort
			in.cpu = opts.CPU
			in.owner = dst.base()
			in.peer = src.base()
			if sites != nil {
				in.site, in.targetID = sites.Site(siteOf(c.To), c.ToPort, false), sites.Target(g.Elements[c.From].Class)
			}
			in.direct = pl.elems[c.To].spec.Devirtualized
		}
	}

	// Initialization pass (after all wiring, so elements can find each
	// other). Handler lists are made here, once: a lookup only reads them.
	rt.handlers = make(map[*Base][]Handler, len(rt.elements))
	for i, e := range rt.elements {
		if init, ok := e.(Initializer); ok {
			if err := init.Initialize(rt); err != nil {
				return nil, fmt.Errorf("core: %s (%q): %v", g.Elements[i].Class, g.Elements[i].Name, err)
			}
		}
		if hp, ok := e.(HandlerProvider); ok {
			rt.handlers[e.base()] = hp.Handlers()
		}
	}

	// Collect scheduled tasks in declaration order, applying any
	// ScheduleInfo weights (a task with weight w runs w times per
	// round; Click's stride scheduler achieves the same proportions).
	weightOf := map[string]int{}
	for _, e := range rt.elements {
		if tw, ok := e.(TaskWeighter); ok {
			for name, w := range tw.TaskWeights() {
				weightOf[name] = w
			}
		}
	}
	for i, e := range rt.elements {
		if t, ok := e.(Task); ok {
			w := weightOf[g.Elements[i].Name]
			if w <= 0 {
				w = 1
			}
			rt.tasks = append(rt.tasks, task{run: t, base: e.base(), weight: w, elem: i})
		}
	}
	return rt, nil
}

// BuildFromText parses, elaborates, and assembles a configuration.
func BuildFromText(config, file string, reg *Registry, opts BuildOptions) (*Router, error) {
	g, err := lang.ParseRouter(config, file)
	if err != nil {
		return nil, err
	}
	return Build(g, reg, opts)
}

// Find returns the element with the given configuration name, or nil.
func (rt *Router) Find(name string) Element {
	if i := rt.Graph.FindElement(name); i >= 0 {
		return rt.elements[i]
	}
	return nil
}

// Elements returns the router's elements in graph order.
func (rt *Router) Elements() []Element { return rt.elements }

// Processing returns the resolved push/pull assignment.
func (rt *Router) Processing() *graph.Processing { return rt.proc }

// RunTaskRound runs each awake task weight times, in task table order,
// and reports whether any did useful work. A task that goes to sleep
// (Base.Sleep) gives up the rest of its runs. This stands in for one
// iteration of Click's kernel thread loop.
func (rt *Router) RunTaskRound() bool {
	any := false
	for i := range rt.tasks {
		t := &rt.tasks[i]
		for w := 0; w < t.weight && !t.base.asleep; w++ {
			if t.run.RunTask() {
				any = true
			}
		}
	}
	return any
}

// RunUntilIdle runs task rounds until none does useful work, up to
// maxRounds. It returns the number of rounds that did work.
func (rt *Router) RunUntilIdle(maxRounds int) int {
	rounds := 0
	for rounds < maxRounds && rt.RunTaskRound() {
		rounds++
	}
	return rounds
}

// Close shuts the router down, closing every element that holds
// external resources (trace files and the like).
func (rt *Router) Close() error {
	var first error
	for _, e := range rt.elements {
		if c, ok := e.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
