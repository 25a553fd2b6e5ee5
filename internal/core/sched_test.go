package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// tBatchSink records packets and how many bursts brought them.
type tBatchSink struct {
	Base
	got        []*packet.Packet
	batchCalls int
}

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

func (e *tBatchPuller) PushBatch(port int, ps []*packet.Packet) { e.queue = append(e.queue, ps...) }
func (e *tBatchPuller) PullBatch(port int, buf []*packet.Packet) int {
	e.batchCalls++
	n := copy(buf, e.queue)
	e.queue = e.queue[n:]
	return n
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

func TestPushBatchTarget(t *testing.T) {
	cpu := simcpu.New(simcpu.P0)
	rt, err := BuildFromText("a :: TPass -> s :: TBatchSink;", "t", batchTestRegistry(), BuildOptions{CPU: cpu})
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
	// to be had — which reaches the sink as a burst of one.
	a.Output(0).PushBatch(mkBatch(1))
	if cpu.BatchTransfers != 1 || s.batchCalls != 2 || len(s.got) != 5 {
		t.Errorf("len-1 batch: %d batch transfers, batchCalls=%d got=%d, want scalar delivery",
			cpu.BatchTransfers, s.batchCalls, len(s.got))
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
		t.Fatalf("PullBatch returned %d, want 5", n)
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
	rt, err := BuildFromText(cfg, "t", batchTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rounds := NewScheduler(rt).RunUntilIdle(100); rounds != 3 {
		t.Errorf("active rounds = %d, want 3", rounds)
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		if got := len(rt.Find(name).(*tSink).got); got != 3 {
			t.Errorf("%s got %d packets, want 3", name, got)
		}
	}
}

// The scheduler is the same loop as Router.RunUntilIdle, so it drives a
// router with the cost model attached and charges the model exactly the
// same cycles for the same input.
func TestSchedulerChargesModelLikeRouter(t *testing.T) {
	cfg := "t1 :: TTask -> a :: TPass -> s1 :: TBatchSink; t2 :: TTask -> s2 :: TSink;"
	run := func(drive func(*Router) int) (rounds int, cycles int64) {
		cpu := simcpu.New(simcpu.P0)
		rt, err := BuildFromText(cfg, "t", batchTestRegistry(), BuildOptions{CPU: cpu})
		if err != nil {
			t.Fatal(err)
		}
		rounds = drive(rt)
		for _, name := range []string{"s1", "s2"} {
			if n := rt.Find(name).base().Stats().PacketsIn(); n != 3 {
				t.Fatalf("%s received %d packets, want 3", name, n)
			}
		}
		return rounds, cpu.TotalCycles()
	}
	wantRounds, want := run(func(rt *Router) int { return rt.RunUntilIdle(100) })
	gotRounds, got := run(func(rt *Router) int { return NewScheduler(rt).RunUntilIdle(100) })
	if want == 0 {
		t.Fatal("reference run charged no model cycles")
	}
	if got != want || gotRounds != wantRounds {
		t.Errorf("scheduler: %d cycles in %d rounds, Router.RunUntilIdle: %d cycles in %d rounds",
			got, gotRounds, want, wantRounds)
	}
}

// tCountTask counts its runs.
type tCountTask struct {
	Base
	runs int
}

func (e *tCountTask) RunTask() bool {
	e.runs++
	return true
}

// tWeights stands in for elements.ScheduleInfo.
type tWeights struct {
	Base
	w map[string]int
}

func (e *tWeights) TaskWeights() map[string]int { return e.w }

func TestRunRoundRunsEachTaskWeightTimes(t *testing.T) {
	// Every task must run exactly weight times per round — the
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
	s := NewScheduler(rt)
	const rounds = 40
	for i := 0; i < rounds; i++ {
		if !s.RunRound() {
			t.Fatalf("round %d reported no progress", i)
		}
	}
	for name, w := range weights {
		if e := rt.Find(name).(*tCountTask); e.runs != w*rounds {
			t.Errorf("task %s ran %d times, want weight %d x %d rounds = %d", name, e.runs, w, rounds, w*rounds)
		}
	}
}
