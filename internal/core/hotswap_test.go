package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/packet"
)

// tCarrier is a stateful pass-through element implementing StateCarrier.
type tCarrier struct {
	Base
	val      int
	saved    bool
	restored bool
	failWith error
}

type tCarrierState struct{ Val int }

func (e *tCarrier) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.Work()
		e.val++
		e.Output(0).Push(p)
	}
}

func (e *tCarrier) SaveState() interface{} {
	e.saved = true
	return &tCarrierState{Val: e.val}
}

func (e *tCarrier) RestoreState(state interface{}) error {
	if e.failWith != nil {
		return e.failWith
	}
	e.restored = true
	e.val = state.(*tCarrierState).Val
	return nil
}

// tCarrier2 has the same shape but a different Go type, so state must
// not move between a tCarrier and a tCarrier2 of the same name.
type tCarrier2 struct{ tCarrier }

func hotswapRegistry() *Registry {
	reg := testRegistry()
	one := func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(1)
	}
	reg.Register(&Spec{Name: "TCarrier", Processing: "h/h", Ports: one,
		Make: func() Element { return &tCarrier{} }, WorkCycles: 5})
	reg.Register(&Spec{Name: "TCarrier2", Processing: "h/h", Ports: one,
		Make: func() Element { return &tCarrier2{} }, WorkCycles: 5})
	// TCarrierDV: devirtualize-style renamed class over the same Go
	// type — state must still transplant.
	reg.Register(&Spec{Name: "TCarrier_dv0", Processing: "h/h", Ports: one,
		Make: func() Element { return &tCarrier{} }, WorkCycles: 5, Devirtualized: true})
	return reg
}

func buildText(t *testing.T, text string, reg *Registry) *Router {
	t.Helper()
	rt, err := BuildFromText(text, "hotswap_test", reg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestHotswapTransplantsStatsAndState(t *testing.T) {
	reg := hotswapRegistry()
	old := buildText(t, "c :: TCarrier -> s :: TSink;", reg)
	c := old.Find("c").(*tCarrier)
	for i := 0; i < 7; i++ {
		c.Push(0, packet.New([]byte{1, 2, 3}))
	}
	if c.val != 7 {
		t.Fatalf("val = %d, want 7", c.val)
	}

	next := buildText(t, "c :: TCarrier -> s :: TSink;", reg)
	if err := old.Hotswap(next); err != nil {
		t.Fatal(err)
	}
	nc := next.Find("c").(*tCarrier)
	if !c.saved || !nc.restored {
		t.Errorf("state did not move: saved=%v restored=%v", c.saved, nc.restored)
	}
	if nc.val != 7 {
		t.Errorf("transplanted val = %d, want 7", nc.val)
	}
	if got := nc.Stats().PacketsOut(); got != 7 {
		t.Errorf("transplanted PacketsOut = %d, want 7", got)
	}
	if got := nc.Stats().Cycles(); got != 7*5 {
		t.Errorf("transplanted Cycles = %d, want 35", got)
	}
	// The sink's stats carry over too.
	if got := next.Find("s").base().Stats().PacketsIn(); got != 7 {
		t.Errorf("sink transplanted PacketsIn = %d, want 7", got)
	}
}

func TestHotswapAcrossDevirtualizedClass(t *testing.T) {
	reg := hotswapRegistry()
	old := buildText(t, "c :: TCarrier -> s :: TSink;", reg)
	old.Find("c").(*tCarrier).val = 3
	// Same element name, renamed class, same Go type: the situation
	// Devirtualize produces. State must transplant.
	next := buildText(t, "c :: TCarrier_dv0 -> s :: TSink;", reg)
	if err := old.Hotswap(next); err != nil {
		t.Fatal(err)
	}
	if got := next.Find("c").(*tCarrier).val; got != 3 {
		t.Errorf("val across class rename = %d, want 3", got)
	}
}

func TestHotswapSkipsForeignTypes(t *testing.T) {
	reg := hotswapRegistry()
	old := buildText(t, "c :: TCarrier -> s :: TSink;", reg)
	oc := old.Find("c").(*tCarrier)
	oc.val = 9
	oc.Push(0, packet.New([]byte{1}))

	next := buildText(t, "c :: TCarrier2 -> s :: TSink;", reg)
	if err := old.Hotswap(next); err != nil {
		t.Fatal(err)
	}
	nc := next.Find("c").(*tCarrier2)
	if oc.saved || nc.restored {
		t.Errorf("state moved across Go types: saved=%v restored=%v", oc.saved, nc.restored)
	}
	// Telemetry still carries over: it is class-agnostic.
	if got := nc.Stats().PacketsOut(); got != 1 {
		t.Errorf("stats did not transplant across classes: PacketsOut = %d", got)
	}
}

func TestHotswapRestoreErrorNamesElement(t *testing.T) {
	reg := hotswapRegistry()
	old := buildText(t, "c :: TCarrier -> s :: TSink;", reg)
	next := buildText(t, "c :: TCarrier -> s :: TSink;", reg)
	next.Find("c").(*tCarrier).failWith = fmt.Errorf("boom")
	err := old.Hotswap(next)
	if err == nil {
		t.Fatal("restore error was swallowed")
	}
	if want := `hotswap "c"`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the element (want %q)", err, want)
	}
}

// tSpin is a task that stays productive until told to stop, keeping a
// scheduler run alive while a control operation arrives.
type tSpin struct {
	Base
	stop *atomic.Bool
	runs atomic.Int64
}

func (e *tSpin) RunTask() bool {
	e.runs.Add(1)
	return !e.stop.Load()
}

// tStateQueue is a queue whose contents survive a hot-swap.
type tStateQueue struct {
	tPuller
	failWith error
}

func (e *tStateQueue) SaveState() interface{} {
	q := e.queue
	e.queue = nil
	return q
}

func (e *tStateQueue) RestoreState(state interface{}) error {
	if e.failWith != nil {
		return e.failWith
	}
	e.queue = state.([]*packet.Packet)
	return nil
}

// TestSchedulerSyncDoHotswap installs a replacement router the only way
// a live router changes — Hotswap inside a SyncDo closure — from the
// driving goroutine between rounds and from a second goroutine while
// RunUntilIdle runs. The old router holds five queued packets nothing drains; the replacement
// adds the draining task, so delivery proves the transplant. A failing
// RestoreState must come back through the closure and leave the old
// router installed and scheduled.
func TestSchedulerSyncDoHotswap(t *testing.T) {
	for _, second := range []bool{false, true} {
		for _, fail := range []bool{false, true} {
			name := fmt.Sprintf("second-goroutine=%v/restore-fails=%v", second, fail)
			t.Run(name, func(t *testing.T) { syncDoHotswapCase(t, second, fail) })
		}
	}
}

func syncDoHotswapCase(t *testing.T, second, fail bool) {
	var stop atomic.Bool
	reg := batchTestRegistry()
	none := func(string) (graph.PortRange, graph.PortRange) { return graph.Exactly(0), graph.Exactly(0) }
	reg.Register(&Spec{Name: "TSpin", Processing: "a/a", Ports: none,
		Make: func() Element { return &tSpin{stop: &stop} }})
	reg.Register(&Spec{Name: "TStateQueue", Processing: "h/l", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(1)
	}, Make: func() Element { return &tStateQueue{} }})
	old := buildText(t, "spin :: TSpin; q :: TStateQueue -> k :: TPullSink;", reg)
	next := buildText(t, "spin :: TSpin; q :: TStateQueue -> d :: TDrain;", reg)
	old.Find("q").(*tStateQueue).queue = mkBatch(5)
	if fail {
		next.Find("q").(*tStateQueue).failWith = fmt.Errorf("boom")
	}
	s := NewScheduler(old)
	oldSpin := old.Find("spin").(*tSpin)
	install := func() error {
		var err error
		s.SyncDo(func() { err = s.Hotswap(next) })
		return err
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("timed out waiting for %s", what)
				return
			}
		}
	}

	var swapErr error
	if second {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer stop.Store(true)
			waitFor("the run to start", func() bool { return oldSpin.runs.Load() > 0 })
			swapErr = install()
			if fail {
				n := oldSpin.runs.Load()
				waitFor("the old router to keep running", func() bool { return oldSpin.runs.Load() > n })
			}
		}()
		s.RunUntilIdle(1 << 30)
		<-done
	} else {
		s.RunRound()
		swapErr = install()
		if fail {
			n := oldSpin.runs.Load()
			s.RunRound()
			if oldSpin.runs.Load() <= n {
				t.Error("old router not scheduled after the failed swap")
			}
		}
		stop.Store(true)
		s.RunUntilIdle(1 << 30)
	}

	if fail {
		if swapErr == nil || !strings.Contains(swapErr.Error(), `hotswap "q"`) {
			t.Errorf("closure error = %v, want the RestoreState failure naming q", swapErr)
		}
		if s.Router() != old {
			t.Error("failed swap replaced the installed router")
		}
		return
	}
	if swapErr != nil {
		t.Fatal(swapErr)
	}
	if s.Router() != next {
		t.Fatal("scheduler did not adopt the new router")
	}
	if got := next.Find("d").(*tDrain).drained; got != 5 {
		t.Errorf("drained %d transplanted packets, want 5", got)
	}
}
