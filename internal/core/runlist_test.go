package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/simcpu"
)

// tNapper counts its runs and goes to sleep after each one.
type tNapper struct {
	Base
	runs int
}

func (e *tNapper) RunTask() bool {
	e.runs++
	e.Sleep()
	return false
}

// tWaker runs wake, when set, once per round.
type tWaker struct {
	Base
	wake func()
}

func (e *tWaker) RunTask() bool {
	if e.wake != nil {
		e.wake()
	}
	return false
}

func runListRegistry() *Registry {
	reg := testRegistry()
	none := func(string) (graph.PortRange, graph.PortRange) { return graph.Exactly(0), graph.Exactly(0) }
	reg.Register(&Spec{Name: "TNapper", Ports: none, Make: func() Element { return &tNapper{} }})
	reg.Register(&Spec{Name: "TWaker", Ports: none, Make: func() Element { return &tWaker{} }})
	return reg
}

func runListRouter(t *testing.T, cfg string, cpu *simcpu.CPU) *Router {
	t.Helper()
	rt, err := BuildFromText(cfg, "t", runListRegistry(), BuildOptions{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func napper(rt *Router, name string) *tNapper { return rt.Find(name).(*tNapper) }

// A sleeping task is skipped until woken; a task woken during a round
// runs in it only if it comes later in the table, as it would have found
// its work then had it run every round.
func TestSleepingTaskSkippedUntilWoken(t *testing.T) {
	for _, c := range []struct {
		cfg  string
		runs int // napper runs in the round its waker wakes it
	}{
		{"w :: TWaker; n :: TNapper;", 2},
		{"n :: TNapper; w :: TWaker;", 1},
	} {
		rt := runListRouter(t, c.cfg, nil)
		n := napper(rt, "n")
		for i := 0; i < 100; i++ {
			rt.RunTaskRound()
		}
		if n.runs != 1 {
			t.Fatalf("%s: sleeping task ran %d times in 100 rounds, want 1", c.cfg, n.runs)
		}
		w := rt.Find("w").(*tWaker)
		w.wake = func() { n.Wake(); w.wake = nil }
		rt.RunTaskRound()
		if n.runs != c.runs {
			t.Errorf("%s: woken task has run %d times after the waking round, want %d", c.cfg, n.runs, c.runs)
		}
		rt.RunTaskRound()
		if n.runs != 2 {
			t.Errorf("%s: woken task has run %d times a round later, want 2", c.cfg, n.runs)
		}
	}
}

// With a cost model attached nothing sleeps: the model charges every
// idle poll.
func TestCostModelKeepsTasksRunning(t *testing.T) {
	rt := runListRouter(t, "n :: TNapper;", simcpu.New(simcpu.P0))
	for i := 0; i < 10; i++ {
		rt.RunTaskRound()
	}
	if got := napper(rt, "n").runs; got != 10 {
		t.Errorf("task ran %d times in 10 modeled rounds, want 10", got)
	}
}

// Splice adds tasks awake, and removal and compaction keep each task's
// asleep bit with its own task.
func TestRunListAcrossSpliceAndRemove(t *testing.T) {
	rt := runListRouter(t, "b :: TNapper;", nil)
	rt.RunTaskRound()
	var subs []*Router
	for i := 0; i < 6; i++ {
		sub := runListRouter(t, fmt.Sprintf("s%d :: TNapper;", i), nil)
		sub.RunTaskRound() // asleep before the splice
		if err := rt.Splice(sub); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	rt.RunTaskRound()
	for i := range subs {
		if got := napper(rt, fmt.Sprintf("s%d", i)).runs; got != 2 {
			t.Fatalf("spliced task s%d ran %d times, want 2 (once alone, once spliced)", i, got)
		}
	}
	// The first removal leaves a tombstone in the middle of the table,
	// where the second removal's search looks first; the second compacts.
	rt.Remove(subs[2])
	rt.Remove(subs[0])
	napper(rt, "s1").Wake()
	napper(rt, "s3").Wake()
	for i := 0; i < 3; i++ {
		rt.RunTaskRound()
	}
	want := map[string]int{"b": 1, "s1": 3, "s3": 3, "s4": 2, "s5": 2}
	for name, runs := range want {
		if got := napper(rt, name).runs; got != runs {
			t.Errorf("%s ran %d times, want %d", name, got, runs)
		}
	}
	if _, tasks, _ := rt.Census(); tasks != len(want) {
		t.Errorf("census counts %d tasks, want %d", tasks, len(want))
	}
}
