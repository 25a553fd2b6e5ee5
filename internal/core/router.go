package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

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
	tasks     []Task
	weights   []int
	taskElems []int // element index of each task, parallel to tasks
	dead      int   // removed element slots awaiting compaction (splice.go)
	deadTasks int   // removed task slots awaiting compaction
	proc      *graph.Processing
	env       map[string]interface{}
	burst     int
	tracer    *Tracer
	guards    *Generations
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

// Build assembles a runnable router from a configuration graph. The
// graph is cloned and compacted; the original is not modified.
func Build(g *graph.Router, reg *Registry, opts BuildOptions) (*Router, error) {
	g = g.Clone()
	g.Compact()

	if errs := graph.CheckPorts(g, reg); len(errs) > 0 {
		return nil, fmt.Errorf("core: %v", errs[0])
	}
	proc, err := graph.AssignProcessing(g, reg)
	if err != nil {
		return nil, err
	}

	rt := &Router{
		Graph:    g,
		Registry: reg,
		CPU:      opts.CPU,
		proc:     proc,
		env:      opts.Env,
		burst:    opts.Burst,
		guards:   &Generations{},
	}
	sites := simcpu.NewSites()

	// Instantiate and configure elements.
	specs := make([]*Spec, len(g.Elements))
	rt.elements = make([]Element, len(g.Elements))
	for i, ge := range g.Elements {
		spec, ok := reg.Lookup(ge.Class)
		if !ok {
			return nil, fmt.Errorf("core: unknown element class %q (element %q)", ge.Class, ge.Name)
		}
		if spec.Make == nil {
			return nil, fmt.Errorf("core: element class %q is specification-only (element %q)", ge.Class, ge.Name)
		}
		e := spec.Make()
		b := e.base()
		b.name = ge.Name
		b.class = ge.Class
		b.router = rt
		b.cpu = opts.CPU
		b.workCycles = spec.WorkCycles
		b.outputs = make([]OutPort, g.NOutputs(i))
		b.inputs = make([]InPort, g.NInputs(i))
		if err := e.Configure(lang.SplitConfig(ge.Config)); err != nil {
			return nil, fmt.Errorf("core: %s (%q at %s): %v", ge.Class, ge.Name, ge.Landmark, err)
		}
		if a, ok := e.(SimpleAction); ok {
			if m := ownTransfer(e); m != "" {
				return nil, fmt.Errorf("core: %s (%q): implements SimpleAction and its own %s; write one", ge.Class, ge.Name, m)
			}
			b.action = a
		}
		specs[i] = spec
		rt.elements[i] = e
	}

	// Wire connections. A push connection binds the source's output
	// port to the target; a pull connection binds the target's input
	// port to the source. Devirtualized classes bind direct handlers
	// instead of dispatching through the Element interface.
	for _, c := range g.Conns {
		src, dst := rt.elements[c.From], rt.elements[c.To]
		srcClass, dstClass := g.Elements[c.From].Class, g.Elements[c.To].Class
		siteSrc, siteDst := srcClass, dstClass
		if opts.PerElementSites {
			// Call sites become per-element; the call targets are
			// still the per-class handler functions.
			siteSrc = g.Elements[c.From].Name
			siteDst = g.Elements[c.To].Name
		}
		kind := proc.OutputKind(c.From, c.FromPort)
		out := src.base().Output(c.FromPort)
		in := dst.base().Input(c.ToPort)
		out.connected, in.connected = true, true
		if kind == graph.Push {
			out.target = dst
			out.targetPort = c.ToPort
			out.cpu = opts.CPU
			out.owner = src.base()
			out.peer = dst.base()
			out.site = sites.Site(siteSrc, c.FromPort, true)
			out.targetID = sites.Target(dstClass)
			if specs[c.From].Devirtualized {
				out.direct = dst.Push
			}
			if out.peer.action != nil {
				out.batch = derivedBatch{out.peer}
			} else if bp, ok := dst.(BatchPusher); ok {
				out.batch = bp
			}
		} else {
			in.source = src
			in.sourcePort = c.FromPort
			in.cpu = opts.CPU
			in.owner = dst.base()
			in.peer = src.base()
			in.site = sites.Site(siteDst, c.ToPort, false)
			in.targetID = sites.Target(srcClass)
			if specs[c.To].Devirtualized {
				in.direct = src.Pull
			}
			if in.peer.action != nil {
				in.batch = derivedBatch{in.peer}
			} else if bp, ok := src.(BatchPuller); ok {
				in.batch = bp
			}
		}
	}

	// Initialization pass (after all wiring, so elements can find each
	// other).
	for i, e := range rt.elements {
		if init, ok := e.(Initializer); ok {
			if err := init.Initialize(rt); err != nil {
				return nil, fmt.Errorf("core: %s (%q): %v", g.Elements[i].Class, g.Elements[i].Name, err)
			}
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
			rt.tasks = append(rt.tasks, t)
			rt.taskElems = append(rt.taskElems, i)
			w := weightOf[g.Elements[i].Name]
			if w <= 0 {
				w = 1
			}
			rt.weights = append(rt.weights, w)
		}
	}
	return rt, nil
}

// ownTransfer names a transfer method e's class writes itself, or ""
// when it inherits Push and Pull from Base and has no batch methods. It
// is a fact about the type that takes a walk of the symbol table to
// establish, so it is remembered per type.
func ownTransfer(e Element) string {
	t := reflect.TypeOf(e)
	if own, ok := ownTransfers.Load(t); ok {
		return own.(string)
	}
	own := ""
	if push, pull := declares(t); push {
		own = "Push"
	} else if pull {
		own = "Pull"
	} else if _, ok := e.(BatchPusher); ok {
		own = "PushBatch"
	} else if _, ok := e.(BatchPuller); ok {
		own = "PullBatch"
	}
	ownTransfers.Store(t, own)
	return own
}

var ownTransfers sync.Map // reflect.Type → string

// declares reports whether the class *T, or a class it embeds, declares
// Push or Pull rather than inheriting Base's. Go reaches an inherited
// method through a compiler-generated wrapper, so *T declares its own
// exactly when the method's source file is not the one the wrapper of
// inheritor, which inherits both, reports. The method names are spelled
// out because the linker keeps every exported method of every type in
// the binary unless MethodByName's argument is a constant.
func declares(t reflect.Type) (push, pull bool) {
	file := func(m reflect.Method, ok bool) string {
		if !ok {
			return ""
		}
		pc := m.Func.Pointer()
		f, _ := runtime.FuncForPC(pc).FileLine(pc)
		return f
	}
	wrapper := file(reflect.TypeOf(&inheritor{}).MethodByName("Push"))
	f := file(t.MethodByName("Push"))
	push = f != "" && f != wrapper
	f = file(t.MethodByName("Pull"))
	pull = f != "" && f != wrapper
	for i := 0; i < t.Elem().NumField(); i++ {
		if f := t.Elem().Field(i); f.Anonymous && f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(Base{}) {
			a, b := declares(reflect.PointerTo(f.Type))
			push, pull = push || a, pull || b
		}
	}
	return push, pull
}

// inheritor is the reference class that inherits every transfer.
type inheritor struct{ Base }

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

// RunTaskRound runs every task (weight times each), round-robin, and
// reports whether any did useful work. This stands in for one iteration
// of Click's kernel thread loop.
func (rt *Router) RunTaskRound() bool {
	any := false
	for i, t := range rt.tasks {
		for w := 0; w < rt.weights[i]; w++ {
			if t.RunTask() {
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
