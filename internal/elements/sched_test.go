package elements

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

// schedRig builds n queues feeding a scheduler feeding an Unqueue into
// a sink, and fills queue i with fill[i] packets painted i+1.
func schedRig(t *testing.T, schedDecl string, fill []int) (*core.Router, *sink) {
	t.Helper()
	cfg := ""
	for i := range fill {
		cfg += "i" + string(rune('0'+i)) + " :: Idle -> q" + string(rune('0'+i)) + " :: Queue(64) -> [" + string(rune('0'+i)) + "] sch;\n"
	}
	cfg += "sch :: " + schedDecl + " -> u :: Unqueue -> out :: TestSink;\n"
	rt, err := core.BuildFromText(cfg, "sched", testRegistry(), core.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, cfg)
	}
	for i, n := range fill {
		q := rt.Find("q" + string(rune('0'+i))).(*Queue)
		for j := 0; j < n; j++ {
			p := packet.New(make([]byte, 20))
			p.Anno.Paint = byte(i + 1)
			q.Push(0, p)
		}
	}
	return rt, rt.Find("out").(*sink)
}

func drainOrder(rt *core.Router, out *sink, max int) []byte {
	rt.RunUntilIdle(max)
	order := make([]byte, len(out.got))
	for i, p := range out.got {
		order[i] = p.Anno.Paint
	}
	return order
}

func TestRoundRobinSched(t *testing.T) {
	rt, out := schedRig(t, "RoundRobinSched", []int{3, 3, 3})
	order := drainOrder(rt, out, 100)
	if len(order) != 9 {
		t.Fatalf("drained %d packets, want 9", len(order))
	}
	// Perfect interleave 1,2,3,1,2,3,...
	for i, c := range order {
		if want := byte(i%3 + 1); c != want {
			t.Fatalf("position %d: paint %d, want %d (order %v)", i, c, want, order)
		}
	}
}

func TestRoundRobinSkipsEmpty(t *testing.T) {
	rt, out := schedRig(t, "RoundRobinSched", []int{2, 0, 1})
	order := drainOrder(rt, out, 100)
	if len(order) != 3 {
		t.Fatalf("drained %d packets, want 3", len(order))
	}
	// 1,3,1 — input 1 is empty and skipped without stalling.
	want := []byte{1, 3, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestPrioSched(t *testing.T) {
	rt, out := schedRig(t, "PrioSched", []int{2, 3})
	order := drainOrder(rt, out, 100)
	if len(order) != 5 {
		t.Fatalf("drained %d, want 5", len(order))
	}
	// All of input 0 first.
	want := []byte{1, 1, 2, 2, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestStrideSchedProportions(t *testing.T) {
	rt, out := schedRig(t, "StrideSched(3, 1)", []int{40, 40})
	order := drainOrder(rt, out, 200)
	if len(order) != 80 {
		t.Fatalf("drained %d, want 80", len(order))
	}
	// First 40 pulls should be ~3:1 in favour of input 0.
	c0 := 0
	for _, c := range order[:40] {
		if c == 1 {
			c0++
		}
	}
	if c0 < 27 || c0 > 33 {
		t.Errorf("input 0 got %d of the first 40 services, want ~30", c0)
	}
}

// A pull through StrideSched allocates nothing, even when every input
// has to be tried.
func TestStrideSchedPullAllocatesNothing(t *testing.T) {
	rt, _ := schedRig(t, "StrideSched(3, 1)", []int{0, 0})
	in := rt.Find("u").(*Unqueue).Input(0)
	if a := testing.AllocsPerRun(100, func() { in.Pull() }); a != 0 {
		t.Errorf("%v allocations per pull, want 0", a)
	}
}

func TestStrideSchedBadConfig(t *testing.T) {
	for _, cfg := range []string{"StrideSched", "StrideSched(0)", "StrideSched(x)"} {
		_, err := core.BuildFromText(
			"i :: Idle -> q :: Queue -> sch :: "+cfg+" -> u :: Unqueue -> d :: Discard;",
			"t", testRegistry(), core.BuildOptions{})
		if err == nil {
			t.Errorf("%s accepted", cfg)
		}
	}
}

func TestRatedSource(t *testing.T) {
	rt, err := core.BuildFromText("s :: RatedSource(3, 4) -> out :: TestSink;",
		"t", testRegistry(), core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Find("s").(*RatedSource)
	for i := 0; i < 11; i++ {
		s.RunTask()
	}
	// One packet per 3 runs: runs 3, 6, 9 emit.
	if s.Emitted != 3 {
		t.Errorf("emitted %d after 11 runs, want 3", s.Emitted)
	}
	for i := 0; i < 20; i++ {
		s.RunTask()
	}
	if s.Emitted != 4 {
		t.Errorf("limit not honored: emitted %d", s.Emitted)
	}
}

func TestUnqueueBridges(t *testing.T) {
	rt, err := core.BuildFromText(
		"i :: Idle -> q :: Queue(8) -> u :: Unqueue -> out :: TestSink;",
		"t", testRegistry(), core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := rt.Find("q").(*Queue)
	for i := 0; i < 5; i++ {
		q.Push(0, packet.New([]byte{byte(i)}))
	}
	rt.RunUntilIdle(100)
	out := rt.Find("out").(*sink)
	if len(out.got) != 5 {
		t.Fatalf("bridged %d packets, want 5", len(out.got))
	}
	if out.got[0].Data()[0] != 0 || out.got[4].Data()[0] != 4 {
		t.Error("order not preserved")
	}
}

func TestScheduleInfoWeights(t *testing.T) {
	// Two sources into one queue; s1 weighted 3x. After rounds, s1
	// should have emitted ~3x what s2 did.
	rt, err := core.BuildFromText(`
ScheduleInfo(s1 3, s2 1);
s1 :: InfiniteSource(-1, 1) -> q :: Queue(1000) -> u :: Unqueue -> d :: Discard;
s2 :: InfiniteSource(-1, 1) -> q;
`, "t", testRegistry(), core.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rt.RunTaskRound()
	}
	e1 := rt.Find("s1").(*InfiniteSource).Emitted
	e2 := rt.Find("s2").(*InfiniteSource).Emitted
	if e1 != 3*e2 {
		t.Errorf("weighted emission %d vs %d, want 3:1", e1, e2)
	}
}

func TestScheduleInfoBadConfig(t *testing.T) {
	for _, cfg := range []string{"ScheduleInfo(x)", "ScheduleInfo(x 0)", "ScheduleInfo(x y)"} {
		_, err := core.BuildFromText(cfg+"; i :: Idle -> d :: Discard;", "t", testRegistry(), core.BuildOptions{})
		if err == nil {
			t.Errorf("%s accepted", cfg)
		}
	}
}
