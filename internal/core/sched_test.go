package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// tBatchSink records packets and whether they arrived via the batch
// path.
type tBatchSink struct {
	Base
	got        []*packet.Packet
	batchCalls int
}

func (s *tBatchSink) Push(port int, p *packet.Packet) { s.got = append(s.got, p) }
func (s *tBatchSink) PushBatch(port int, ps []*packet.Packet) {
	s.batchCalls++
	s.got = append(s.got, ps...)
}

// tBatchPuller hands out its queue in bulk.
type tBatchPuller struct {
	Base
	queue      []*packet.Packet
	batchCalls int
}

func (e *tBatchPuller) Push(port int, p *packet.Packet) { e.queue = append(e.queue, p) }
func (e *tBatchPuller) Pull(port int) *packet.Packet {
	if len(e.queue) == 0 {
		return nil
	}
	p := e.queue[0]
	e.queue = e.queue[1:]
	return p
}
func (e *tBatchPuller) PullBatch(port int, buf []*packet.Packet) int {
	e.batchCalls++
	n := copy(buf, e.queue)
	e.queue = e.queue[n:]
	return n
}

// tSyncSink reports whether the scheduler armed its guards.
type tSyncSink struct {
	Base
	synced bool
}

func (s *tSyncSink) Push(port int, p *packet.Packet) { p.Kill() }
func (s *tSyncSink) EnableSync()                     { s.synced = true }

// tSteer is a minimal FlowSteerer: route by first payload byte. It
// stands in for elements.FlowSteer, which cannot be imported here.
type tSteer struct {
	Base
}

func (e *tSteer) FlowSteering() {}
func (e *tSteer) Push(port int, p *packet.Packet) {
	e.Output(int(p.Data()[0]) % e.NOutputs()).Push(p)
}

// tDrain is a pulling task: each RunTask drains one packet from its
// input.
type tDrain struct {
	Base
	drained int
}

func (e *tDrain) RunTask() bool {
	p := e.Input(0).Pull()
	if p == nil {
		return false
	}
	e.drained++
	p.Kill()
	return true
}

func batchTestRegistry() *Registry {
	reg := testRegistry()
	sinkPorts := func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(0)
	}
	reg.Register(&Spec{Name: "TBatchSink", Processing: "h/", Ports: sinkPorts,
		Make: func() Element { return &tBatchSink{} }})
	reg.Register(&Spec{Name: "TBatchPuller", Processing: "h/l", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Between(0, 1)
	}, Make: func() Element { return &tBatchPuller{} }})
	reg.Register(&Spec{Name: "TSyncSink", Processing: "h/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 2), graph.Exactly(0)
	}, Make: func() Element { return &tSyncSink{} }})
	reg.Register(&Spec{Name: "TSteer", Processing: "h/h", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Exactly(1), graph.AtLeast(1)
	}, Make: func() Element { return &tSteer{} }})
	reg.Register(&Spec{Name: "TDrain", Processing: "l/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Exactly(1), graph.Exactly(0)
	}, Make: func() Element { return &tDrain{} }})
	return reg
}

func mkBatch(n int) []*packet.Packet {
	ps := make([]*packet.Packet, n)
	for i := range ps {
		ps[i] = packet.New([]byte{byte(i)})
	}
	return ps
}

func TestPushBatchScalarFallback(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> s :: TSink;", "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, s := rt.Find("a").(*tPass), rt.Find("s").(*tSink)
	a.Output(0).PushBatch(mkBatch(3))
	if len(s.got) != 3 {
		t.Fatalf("sink got %d packets, want 3", len(s.got))
	}
	for i, p := range s.got {
		if p.Data()[0] != byte(i) {
			t.Fatalf("packet %d out of order: %v", i, p.Data())
		}
	}
}

func TestPushBatchTarget(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> s :: TBatchSink;", "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, s := rt.Find("a").(*tPass), rt.Find("s").(*tBatchSink)
	a.Output(0).PushBatch(mkBatch(4))
	if s.batchCalls != 1 || len(s.got) != 4 {
		t.Fatalf("batchCalls=%d got=%d, want 1 call with 4 packets", s.batchCalls, len(s.got))
	}
	for i, p := range s.got {
		if p.Data()[0] != byte(i) {
			t.Fatalf("packet %d out of order: %v", i, p.Data())
		}
	}
	// Single-packet batches take the scalar path — no dispatch savings
	// to be had.
	a.Output(0).PushBatch(mkBatch(1))
	if s.batchCalls != 1 || len(s.got) != 5 {
		t.Errorf("len-1 batch: batchCalls=%d got=%d, want scalar delivery", s.batchCalls, len(s.got))
	}
	// Empty batches are no-ops.
	a.Output(0).PushBatch(nil)
	if len(s.got) != 5 {
		t.Errorf("empty batch delivered packets")
	}
}

func TestPushBatchChargesLessThanScalar(t *testing.T) {
	charge := func(batched bool) int64 {
		cpu := simcpu.New(simcpu.P0)
		rt, err := BuildFromText("a :: TPass -> s :: TBatchSink;", "t", batchTestRegistry(), BuildOptions{CPU: cpu})
		if err != nil {
			t.Fatal(err)
		}
		a := rt.Find("a").(*tPass)
		before := cpu.TotalCycles()
		if batched {
			a.Output(0).PushBatch(mkBatch(8))
		} else {
			for _, p := range mkBatch(8) {
				a.Output(0).Push(p)
			}
		}
		return cpu.TotalCycles() - before
	}
	scalar, batch := charge(false), charge(true)
	if batch >= scalar {
		t.Errorf("8-packet batch charged %d cycles, scalar pushes %d — batching amortizes nothing", batch, scalar)
	}
}

func TestPullBatch(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> q :: TPuller -> k :: TPullSink;", "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, k := rt.Find("a").(*tPass), rt.Find("k").(*tPullSink)
	for _, p := range mkBatch(5) {
		a.Push(0, p)
	}
	buf := make([]*packet.Packet, 8)
	if n := k.Input(0).PullBatch(buf); n != 5 {
		t.Fatalf("scalar-fallback PullBatch returned %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if buf[i].Data()[0] != byte(i) {
			t.Fatalf("packet %d out of order", i)
		}
	}
	if n := k.Input(0).PullBatch(buf); n != 0 {
		t.Errorf("drained queue returned %d packets", n)
	}
}

func TestPullBatchTarget(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> q :: TBatchPuller -> k :: TPullSink;", "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, q, k := rt.Find("a").(*tPass), rt.Find("q").(*tBatchPuller), rt.Find("k").(*tPullSink)
	for _, p := range mkBatch(6) {
		a.Push(0, p)
	}
	buf := make([]*packet.Packet, 4)
	if n := k.Input(0).PullBatch(buf); n != 4 || q.batchCalls != 1 {
		t.Fatalf("PullBatch returned %d (calls %d), want 4 in 1 call", n, q.batchCalls)
	}
	for i := 0; i < 4; i++ {
		if buf[i].Data()[0] != byte(i) {
			t.Fatalf("packet %d out of order", i)
		}
	}
}

func TestSchedulerRunsAllTasks(t *testing.T) {
	cfg := "t1 :: TTask -> s1 :: TSink; t2 :: TTask -> s2 :: TSink; t3 :: TTask -> s3 :: TSink;"
	for _, workers := range []int{1, 2, 4, 8} {
		rt, err := BuildFromText(cfg, "t", batchTestRegistry(), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheduler(rt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if s.Workers() != workers {
			t.Errorf("Workers() = %d, want %d", s.Workers(), workers)
		}
		rounds := s.RunUntilIdle(100)
		if workers == 1 {
			// The scalar path keeps exact per-round semantics.
			if rounds != 3 {
				t.Errorf("workers=1: active rounds = %d, want 3", rounds)
			}
		} else if rounds < 1 {
			// Epoch mode reports coarser productive epochs; zero would
			// mean the workers never ran the tasks.
			t.Errorf("workers=%d: productive epochs = %d, want >= 1", workers, rounds)
		}
		for _, name := range []string{"s1", "s2", "s3"} {
			if got := len(rt.Find(name).(*tSink).got); got != 3 {
				t.Errorf("workers=%d: %s got %d packets, want 3", workers, name, got)
			}
		}
	}
}

func TestSchedulerRefusesSimulatedCPU(t *testing.T) {
	rt, err := BuildFromText("t1 :: TTask -> s1 :: TSink;", "t", batchTestRegistry(),
		BuildOptions{CPU: simcpu.New(simcpu.P0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(rt, 2); err == nil || !strings.Contains(err.Error(), "simulated CPU") {
		t.Errorf("NewScheduler(2) with CPU attached: err = %v, want refusal", err)
	}
	// One worker is the scalar path and stays legal.
	if _, err := NewScheduler(rt, 1); err != nil {
		t.Errorf("NewScheduler(1) with CPU attached: %v", err)
	}
}

func TestSchedulerArmsSynchronizers(t *testing.T) {
	// The sink is pushed into by two tasks, so the analysis must arm it.
	shared := "t1 :: TTask -> [0]s :: TSyncSink; t2 :: TTask -> [1]s;"
	build := func(cfg string) *Router {
		rt, err := BuildFromText(cfg, "t", batchTestRegistry(), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := build(shared)
	if _, err := NewScheduler(rt, 1); err != nil {
		t.Fatal(err)
	}
	if rt.Find("s").(*tSyncSink).synced {
		t.Error("single-worker scheduler armed sync guards")
	}
	rt = build(shared)
	if _, err := NewScheduler(rt, 2); err != nil {
		t.Fatal(err)
	}
	if !rt.Find("s").(*tSyncSink).synced {
		t.Error("parallel scheduler did not arm sync guards")
	}
	if !rt.Find("s").base().stats.shared {
		t.Error("two-task sink stats not atomic")
	}
	// A sink touched by exactly one task stays unguarded even in
	// parallel mode: the task-reach analysis proves exclusivity, so its
	// counters stay worker-local (plain).
	rt = build("t1 :: TTask -> s :: TSyncSink;")
	if _, err := NewScheduler(rt, 2); err != nil {
		t.Fatal(err)
	}
	if rt.Find("s").(*tSyncSink).synced {
		t.Error("task-exclusive sink was armed despite single-task proof")
	}
	if rt.Find("s").base().stats.shared {
		t.Error("task-exclusive sink stats went atomic despite single-task proof")
	}
}

// tCountTask counts its runs and flags overlapping executions. runs is
// deliberately plain: under -race a second goroutine running the task
// without a happens-before edge from the first is reported.
type tCountTask struct {
	Base
	runs    int
	inside  atomic.Int32
	overlap atomic.Bool
}

func (e *tCountTask) RunTask() bool {
	if e.inside.Add(1) != 1 {
		e.overlap.Store(true)
	}
	e.runs++
	runtime.Gosched() // widen the window an overlapping runner would hit
	e.inside.Add(-1)
	return true
}

// tWeights stands in for elements.ScheduleInfo.
type tWeights struct {
	Base
	w map[string]int
}

func (e *tWeights) TaskWeights() map[string]int { return e.w }

func TestRunRoundRunsEachTaskWeightTimes(t *testing.T) {
	// Barrier rounds on 3 workers: every task must run exactly weight
	// times per round, never on two goroutines at once — the
	// determinism click -rounds and the hot-swap difftests rely on.
	weights := map[string]int{"a": 1, "b": 2, "c": 3, "d": 5, "e": 1}
	reg := batchTestRegistry()
	none := func(string) (graph.PortRange, graph.PortRange) { return graph.Exactly(0), graph.Exactly(0) }
	reg.Register(&Spec{Name: "TCountTask", Processing: "a/a", Ports: none,
		Make: func() Element { return &tCountTask{} }})
	reg.Register(&Spec{Name: "TWeights", Processing: "a/a", Ports: none,
		Make: func() Element { return &tWeights{w: weights} }})
	cfg := "a :: TCountTask; b :: TCountTask; c :: TCountTask; d :: TCountTask; e :: TCountTask; w :: TWeights;"
	rt, err := BuildFromText(cfg, "t", reg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(rt, 3)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		if !s.RunRound() {
			t.Fatalf("round %d reported no progress", i)
		}
	}
	for name, w := range weights {
		e := rt.Find(name).(*tCountTask)
		if e.runs != w*rounds {
			t.Errorf("task %s ran %d times, want weight %d x %d rounds = %d", name, e.runs, w, rounds, w*rounds)
		}
		if e.overlap.Load() {
			t.Errorf("task %s ran on two goroutines at once", name)
		}
	}
}

func TestFlowAffinityPinsSteeredPaths(t *testing.T) {
	// A source pushes through a flow steerer into two queue/drain
	// chains. The partitioner must pin each drain task to the worker
	// owning its steered output — and onto different workers with P=2 —
	// while the source stays stealable.
	cfg := `src :: TTask -> fs :: TSteer;
fs [0] -> q0 :: TPuller -> d0 :: TDrain;
fs [1] -> q1 :: TPuller -> d1 :: TDrain;`
	rt, err := BuildFromText(cfg, "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	taskOf := func(name string) int {
		for ti, ei := range rt.taskElems {
			if rt.elements[ei] == rt.Find(name) {
				return ti
			}
		}
		t.Fatalf("no task for %s", name)
		return -1
	}
	aff, _ := flowAffinity(rt, rt.analyzeTasks())
	src, d0, d1 := taskOf("src"), taskOf("d0"), taskOf("d1")
	if aff[src] != -1 {
		t.Errorf("source task labeled %d, want -1 (stealable)", aff[src])
	}
	if aff[d0] < 0 || aff[d1] < 0 {
		t.Fatalf("drain tasks not flow-labeled: %d, %d", aff[d0], aff[d1])
	}
	if aff[d0] == aff[d1] {
		t.Errorf("both drains share label %d — steered outputs collapsed", aff[d0])
	}

	s, err := NewScheduler(rt, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := s.plan.Load()
	worker := map[Task]int{}
	pinned := map[Task]bool{}
	for w, entries := range plan.perWorker {
		for _, e := range entries {
			worker[e.task] = w
			pinned[e.task] = e.pinned >= 0
		}
	}
	dt0, dt1 := rt.tasks[d0], rt.tasks[d1]
	if !pinned[dt0] || !pinned[dt1] {
		t.Error("drain tasks not pinned")
	}
	if worker[dt0] == worker[dt1] {
		t.Errorf("both drains placed on worker %d", worker[dt0])
	}
	if pinned[rt.tasks[src]] {
		t.Error("source task pinned despite having no flow label")
	}
}

func TestSchedulerStealing(t *testing.T) {
	// More workers than tasks: the surplus workers must steal (or idle)
	// without deadlocking, and every packet must still arrive.
	rt, err := BuildFromText("t1 :: TTask -> s1 :: TSink;", "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ran, err := rt.RunParallelUntilIdle(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ran < 1 {
		t.Errorf("productive epochs = %d, want >= 1", ran)
	}
	if got := len(rt.Find("s1").(*tSink).got); got != 3 {
		t.Errorf("sink got %d packets, want 3", got)
	}
}
