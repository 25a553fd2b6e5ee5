package core

import (
	"strings"
	"testing"
)

// Incremental splice/remove/swap at the core layer, driven with the
// test registry's task elements. Tenant namespaces are emulated with
// name prefixes ("a_", "b_"); removal takes the spliced subrouter.

func spliceTestRouter(t *testing.T, cfg string) *Router {
	t.Helper()
	rt, err := BuildFromText(cfg, "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func sinkOf(t *testing.T, rt *Router, name string) *tSink {
	t.Helper()
	e := rt.Find(name)
	if e == nil {
		t.Fatalf("no element %q", name)
	}
	return e.(*tSink)
}

func TestIncrementalSpliceRunsNewTenant(t *testing.T) {
	rt := spliceTestRouter(t, "a_src :: TTask -> a_s :: TSink;")
	s := NewScheduler(rt)
	for s.RunUntilIdle(1024) > 0 {
	}
	if got := len(sinkOf(t, rt, "a_s").got); got != 3 {
		t.Fatalf("tenant a delivered %d packets before splice, want 3", got)
	}

	sub := spliceTestRouter(t, "b_src :: TTask -> b_s :: TSink;")
	s.SyncDo(func() {
		if err := s.SpliceTenant(sub); err != nil {
			t.Errorf("splice: %v", err)
		}
	})
	for s.RunUntilIdle(1024) > 0 {
	}
	if got := len(sinkOf(t, rt, "b_s").got); got != 3 {
		t.Fatalf("spliced tenant b delivered %d packets, want 3", got)
	}
	if got := len(sinkOf(t, rt, "a_s").got); got != 3 {
		t.Fatalf("tenant a delivered %d packets after splice, want 3 (untouched)", got)
	}

	// Name collisions must be rejected without mutating the router.
	before := len(rt.Graph.Elements)
	dup := spliceTestRouter(t, "b_src :: TTask -> x_s :: TSink;")
	var serr error
	s.SyncDo(func() { serr = s.SpliceTenant(dup) })
	if serr == nil || !strings.Contains(serr.Error(), "b_src") {
		t.Fatalf("colliding splice error = %v, want mention of b_src", serr)
	}
	if len(rt.Graph.Elements) != before {
		t.Fatalf("failed splice mutated the graph: %d -> %d elements", before, len(rt.Graph.Elements))
	}
}

func TestIncrementalRemoveFreesNamespace(t *testing.T) {
	rt := spliceTestRouter(t, "x_src :: TTask -> x_s :: TSink;")
	s := NewScheduler(rt)
	subA := spliceTestRouter(t, "a_src :: TTask -> a_s :: TSink;")
	s.SyncDo(func() {
		for _, sub := range []*Router{subA, spliceTestRouter(t, "b_src :: TTask -> b_s :: TSink;")} {
			if err := s.SpliceTenant(sub); err != nil {
				t.Errorf("splice: %v", err)
			}
		}
	})

	var removed []Element
	s.SyncDo(func() { removed = s.RemoveTenant(subA) })
	if len(removed) != 2 {
		t.Fatalf("removed %d elements, want 2", len(removed))
	}
	if rt.Find("a_src") != nil || rt.Find("a_s") != nil {
		t.Fatal("tenant a still findable after removal")
	}
	// The survivor must still run, and telemetry must tolerate the
	// removed slots.
	for s.RunUntilIdle(1024) > 0 {
	}
	if got := len(sinkOf(t, rt, "b_s").got); got != 3 {
		t.Fatalf("tenant b delivered %d packets after neighbor removal, want 3", got)
	}
	for _, er := range rt.StatsReport() {
		if strings.HasPrefix(er.Name, "a_") {
			t.Fatalf("stats still report removed element %s", er.Name)
		}
	}
	// The freed prefix is reusable.
	s.SyncDo(func() {
		if err := s.SpliceTenant(spliceTestRouter(t, "a_src :: TTask -> a_s :: TSink;")); err != nil {
			t.Errorf("re-splice into freed prefix: %v", err)
		}
	})
	for s.RunUntilIdle(1024) > 0 {
	}
	if got := len(sinkOf(t, rt, "a_s").got); got != 3 {
		t.Fatalf("re-created tenant a delivered %d packets, want 3", got)
	}
}

func TestIncrementalSwapAdoptsGuards(t *testing.T) {
	rt := spliceTestRouter(t, "x_src :: TTask -> x_s :: TSink;")
	s := NewScheduler(rt)
	subA := spliceTestRouter(t, "a_src :: TTask -> a_s :: TSink;")
	s.SyncDo(func() {
		if err := s.SpliceTenant(subA); err != nil {
			t.Errorf("splice: %v", err)
		}
	})
	// Advance tenant a's guard domain; the swap replacement must adopt
	// the history, and the unrelated tenant x must never see it.
	rt.Find("a_s").base().BumpGuard(GuardConfig)
	aGen := rt.Find("a_s").base().GuardSnapshot()
	xGen := rt.Find("x_s").base().GuardSnapshot()
	if aGen == xGen {
		t.Fatal("tenant a and x share a guard domain")
	}

	subA2 := spliceTestRouter(t, "a_src :: TTask -> a_s :: TSink;")
	s.SyncDo(func() {
		if _, err := s.SwapTenant(subA, subA2); err != nil {
			t.Errorf("swap: %v", err)
		}
	})
	if got := rt.Find("a_s").base().GuardSnapshot(); got != aGen {
		t.Errorf("swapped-in tenant a guards = %v, want adopted %v", got, aGen)
	}
	for s.RunUntilIdle(1024) > 0 {
	}
	if got := len(sinkOf(t, rt, "a_s").got); got != 3 {
		t.Fatalf("swapped tenant delivered %d packets, want 3 (fresh source)", got)
	}
}

func TestIncrementalChurnCompactsGraph(t *testing.T) {
	rt := spliceTestRouter(t, "keep_src :: TTask -> keep_s :: TSink;")
	s := NewScheduler(rt)
	high := 0
	for round := 0; round < 32; round++ {
		sub := spliceTestRouter(t, "churn_src :: TTask -> churn_s :: TSink;")
		s.SyncDo(func() {
			if err := s.SpliceTenant(sub); err != nil {
				t.Errorf("round %d splice: %v", round, err)
			}
		})
		for s.RunUntilIdle(1024) > 0 {
		}
		s.SyncDo(func() { s.RemoveTenant(sub) })
		if n := max(len(rt.Graph.Elements), len(rt.elements), 2*len(rt.tasks)); n > high {
			high = n
		}
	}
	// Dead slots must be reclaimed, not accumulated: 32 churn cycles of
	// a 2-element tenant may never grow the slot or task tables past a
	// small multiple of the live set.
	if high > 12 {
		t.Errorf("graph slots peaked at %d during churn, want compaction to bound it", high)
	}
	for i, tk := range rt.tasks {
		if tk.run != nil && rt.elements[tk.elem].base() != tk.base {
			t.Fatalf("task %d (%s) is out of step with element %d", i, tk.base.name, tk.elem)
		}
	}
	for s.RunUntilIdle(1024) > 0 {
	}
	if got := len(sinkOf(t, rt, "keep_s").got); got != 3 {
		t.Fatalf("survivor delivered %d packets after churn, want 3", got)
	}
}
