package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// Test elements: a source-ish pusher, a pass-through, and a sink.

type tSink struct {
	Base
	got []*packet.Packet
}

func (s *tSink) PushBatch(port int, ps []*packet.Packet) { s.got = append(s.got, ps...) }

type tPass struct {
	Base
	calls int
}

func (e *tPass) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.Work()
		e.calls++
		e.Output(0).Push(p)
	}
}

// PullBatch forwards pulls upstream (agnostic element in a pull context).
func (e *tPass) PullBatch(port int, buf []*packet.Packet) int {
	e.Work()
	return e.Input(0).PullBatch(buf)
}

// tPullSink terminates a pull chain; tests pull via its input port.
type tPullSink struct{ Base }

type tPuller struct {
	Base
	queue []*packet.Packet
}

func (e *tPuller) PushBatch(port int, ps []*packet.Packet) { e.queue = append(e.queue, ps...) }
func (e *tPuller) PullBatch(port int, buf []*packet.Packet) int {
	n := copy(buf, e.queue)
	e.queue = e.queue[n:]
	return n
}

type tTask struct {
	Base
	runs int
	emit int
}

func (e *tTask) RunTask() bool {
	e.runs++
	if e.emit <= 0 {
		return false
	}
	e.emit--
	e.Output(0).Push(packet.New([]byte{1, 2, 3, 4}))
	return true
}

type tInit struct {
	Base
	initialized bool
	failWith    string
}

func (e *tInit) Configure(args []string) error {
	if len(args) == 1 {
		e.failWith = args[0]
	}
	return nil
}

func (e *tInit) Initialize(rt *Router) error {
	if e.failWith != "" {
		return fmt.Errorf("%s", e.failWith)
	}
	e.initialized = true
	return nil
}

func (e *tInit) PushBatch(port int, ps []*packet.Packet) { killAll(ps) }

func killAll(ps []*packet.Packet) {
	for _, p := range ps {
		p.Kill()
	}
}

func testRegistry() *Registry {
	reg := NewRegistry()
	// Sources in these tests push directly into elements, so inputs
	// are optional; outputs are required where the element forwards.
	one := func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(1)
	}
	reg.Register(&Spec{Name: "TSink", Processing: "h/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(0)
	}, Make: func() Element { return &tSink{} }})
	reg.Register(&Spec{Name: "TPass", Processing: "a/a", Ports: one,
		Make: func() Element { return &tPass{} }, WorkCycles: 10})
	reg.Register(&Spec{Name: "TPassDV", Processing: "a/a", Ports: one,
		Make: func() Element { return &tPass{} }, WorkCycles: 10, Devirtualized: true})
	reg.Register(&Spec{Name: "TPuller", Processing: "h/l", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Between(0, 1)
	}, Make: func() Element { return &tPuller{} }})
	reg.Register(&Spec{Name: "TTask", Processing: "/h", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Exactly(0), graph.Exactly(1)
	}, Make: func() Element { return &tTask{emit: 3} }})
	reg.Register(&Spec{Name: "TInit", Processing: "h/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(0)
	}, Make: func() Element { return &tInit{} }})
	reg.Register(&Spec{Name: "TPullSink", Processing: "l/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(0)
	}, Make: func() Element { return &tPullSink{} }})
	reg.Register(&Spec{Name: "SpecOnly", Processing: "a/a"})
	return reg
}

func TestRegistryBasics(t *testing.T) {
	reg := testRegistry()
	if _, ok := reg.Lookup("TPass"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := reg.Lookup("Missing"); ok {
		t.Fatal("found missing class")
	}
	classes := reg.Classes()
	if len(classes) == 0 || !strings.Contains(strings.Join(classes, ","), "TPass") {
		t.Error("Classes() incomplete")
	}
	// Duplicate registration panics.
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	reg.Register(&Spec{Name: "TPass", Processing: "a/a"})
}

func TestRegistryDynamicReplaces(t *testing.T) {
	reg := testRegistry()
	reg.RegisterDynamic(&Spec{Name: "Gen", Processing: "a/a"})
	reg.RegisterDynamic(&Spec{Name: "Gen", Processing: "h/h"})
	if code, _ := reg.ProcessingCode("Gen"); code != "h/h" {
		t.Errorf("dynamic re-registration did not replace: %s", code)
	}
	// Clone isolation.
	c := reg.Clone()
	c.RegisterDynamic(&Spec{Name: "Gen2", Processing: "a/a"})
	if _, ok := reg.Lookup("Gen2"); ok {
		t.Error("clone registration leaked to the original")
	}
}

func TestBuildAndPush(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> b :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := rt.Find("a").(*tPass)
	s := rt.Find("s").(*tSink)
	a.Push(0, packet.New([]byte{1}))
	if len(s.got) != 1 {
		t.Fatalf("sink got %d packets", len(s.got))
	}
	if rt.Find("b").(*tPass).calls != 1 {
		t.Error("middle element not traversed")
	}
	if rt.Find("nope") != nil {
		t.Error("Find invented an element")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		"a :: Unknown -> s :: TSink;",                    // unknown class
		"a :: SpecOnly -> s :: TSink;",                   // specification-only
		"a :: TPass -> s :: TSink; x :: TPass -> [1] s;", // port range
		"q :: TPuller -> s :: TSink;",                    // pull out into push-only sink... sink is "h/": conflict
	}
	for _, cfg := range cases {
		if _, err := BuildFromText(cfg, "t", testRegistry(), BuildOptions{}); err == nil {
			t.Errorf("config %q built successfully", cfg)
		}
	}
}

func TestInitializerRuns(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> i :: TInit;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Find("i").(*tInit).initialized {
		t.Error("Initialize not called")
	}
	// Initialize failure propagates.
	if _, err := BuildFromText("a :: TPass -> i :: TInit(boom);", "t", testRegistry(), BuildOptions{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Initialize error lost: %v", err)
	}
}

func TestTaskScheduling(t *testing.T) {
	rt, err := BuildFromText("src :: TTask -> s :: TSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := rt.RunUntilIdle(100)
	if rounds != 3 {
		t.Errorf("active rounds = %d, want 3", rounds)
	}
	if got := len(rt.Find("s").(*tSink).got); got != 3 {
		t.Errorf("sink got %d packets", got)
	}
	src := rt.Find("src").(*tTask)
	if src.runs != 4 { // 3 productive + 1 idle
		t.Errorf("task ran %d times", src.runs)
	}
}

func TestPullWiring(t *testing.T) {
	// a pushes into the queue; k pulls from it through the agnostic b.
	rt, err := BuildFromText("a :: TPass -> q :: TPuller -> b :: TPass -> k :: TPullSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := rt.Find("a").(*tPass)
	a.Push(0, packet.New([]byte{9}))
	k := rt.Find("k").(*tPullSink)
	p := k.Input(0).Pull()
	if p == nil || p.Data()[0] != 9 {
		t.Fatal("pull chain broken")
	}
	if k.Input(0).Pull() != nil {
		t.Error("empty pull returned packet")
	}
	if rt.Find("b").(*tPass).calls != 0 {
		t.Error("pull path went through Push")
	}
}

func TestCostChargingThroughPorts(t *testing.T) {
	cpu := simcpu.New(simcpu.P0)
	rt, err := BuildFromText("a :: TPass -> b :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	a := rt.Find("a").(*tPass)
	a.Push(0, packet.New([]byte{1}))
	// Two Work charges (10 cycles each) plus two indirect calls. Both
	// transfers share one call site — (TPass, out0) — with different
	// target classes, so both mispredict on every packet: the chain
	// itself exhibits the Figure 2 pathology.
	want := int64(2*10 + 2*(7+40))
	if cpu.TotalCycles() != want {
		t.Errorf("charged %d cycles, want %d", cpu.TotalCycles(), want)
	}
	cpu.Reset()
	a.Push(0, packet.New([]byte{1}))
	if cpu.TotalCycles() != want {
		t.Errorf("alternating-target chain should keep mispredicting: %d cycles, want %d", cpu.TotalCycles(), want)
	}

	// A single-hop transfer, by contrast, predicts after warmup.
	cpu2 := simcpu.New(simcpu.P0)
	rt2, err := BuildFromText("a :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{CPU: cpu2})
	if err != nil {
		t.Fatal(err)
	}
	a2 := rt2.Find("a").(*tPass)
	a2.Push(0, packet.New([]byte{1}))
	cpu2.Reset()
	a2.Push(0, packet.New([]byte{1}))
	if got, want := cpu2.TotalCycles(), int64(10+7); got != want {
		t.Errorf("warm single hop charged %d cycles, want %d", got, want)
	}
}

func TestDevirtualizedDirectBinding(t *testing.T) {
	cpu := simcpu.New(simcpu.P0)
	rt, err := BuildFromText("a :: TPassDV -> b :: TPassDV -> s :: TSink;", "t", testRegistry(), BuildOptions{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	a := rt.Find("a").(*tPass)
	a.Push(0, packet.New([]byte{1}))
	if cpu.Calls != 0 {
		t.Errorf("devirtualized config made %d indirect calls", cpu.Calls)
	}
	if cpu.Direct != 2 {
		t.Errorf("direct calls = %d, want 2", cpu.Direct)
	}
	if len(rt.Find("s").(*tSink).got) != 1 {
		t.Error("packet lost through direct path")
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	g := graph.New()
	a := g.MustAddElement("a", "TPass", "", "")
	s := g.MustAddElement("s", "TSink", "", "")
	g.Connect(a, 0, s, 0)
	before := g.NumElements()
	if _, err := Build(g, testRegistry(), BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if g.NumElements() != before {
		t.Error("Build mutated the input graph")
	}
}

func TestEnvAccess(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> s :: TSink;", "t", testRegistry(),
		BuildOptions{Env: map[string]interface{}{"k": 42}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Env("k") != 42 {
		t.Error("Env lookup failed")
	}
	if rt.Env("missing") != nil {
		t.Error("missing Env key returned non-nil")
	}
}

func TestBasePanicsOnWrongDiscipline(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pull on a push-only element did not panic")
		}
	}()
	rt.Find("s").Pull(0)
}

type tCloser struct {
	Base
	closed bool
}

func (e *tCloser) PushBatch(port int, ps []*packet.Packet) { killAll(ps) }
func (e *tCloser) Close() error                            { e.closed = true; return nil }

func TestRouterClose(t *testing.T) {
	reg := testRegistry()
	reg.Register(&Spec{Name: "TCloser", Processing: "h/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(0)
	}, Make: func() Element { return &tCloser{} }})
	rt, err := BuildFromText("a :: TPass -> c :: TCloser;", "t", reg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if !rt.Find("c").(*tCloser).closed {
		t.Error("Close did not reach the element")
	}
}
