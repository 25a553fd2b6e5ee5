package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Scheduler runs a router's tasks on P workers, the multi-core
// counterpart of the single kernel thread RunTaskRound stands in for.
// Tasks (PollDevice loops, ToDevice and Unqueue pulls) are statically
// partitioned across workers; flow-steered paths (FlowSteerer) are
// pinned so same-flow packets never cross cores, and everything else is
// stealable by idle workers. A task never runs on two workers at once —
// each task entry carries a claim flag the running worker holds — so
// per-task state needs no locks. State shared between tasks (Queue
// rings, ARP tables) is handled by the elements themselves, armed via
// Synchronizer/ConcurrencyHinter from the graph analysis: elements
// proven to be touched by a single task keep plain counters and skip
// their guards entirely.
//
// Two run modes share the partition and the worker pass (runPass):
//
//   - RunRound: one barrier-synchronized round — P goroutines each make
//     one non-stealing pass over their own task list and join, so every
//     task runs exactly weight times. This is the deterministic mode
//     the behavior-preservation difftests and the click -rounds loop
//     drive directly.
//   - RunUntilIdle with workers > 1: epoch mode. Workers free-run
//     stealing passes with no per-round barrier; a monitor detects
//     quiescence when every worker completes a full pass without any
//     productive task, and workers rendezvous only for control
//     operations (SyncDo) and shutdown.
//
// A live router changes in exactly one way: a closure handed to SyncDo,
// which runs at a quiescent point and calls Hotswap, SpliceTenant,
// SwapTenant, RemoveTenant or a handler.
type Scheduler struct {
	rt      *Router
	workers int

	// plan is the current task partition. It is rebuilt only at
	// quiescent points (construction, hot-swap, tenant splice/remove)
	// and read through an atomic pointer by free-running workers.
	plan atomic.Pointer[schedPlan]

	// aff is the per-task flow-affinity label table, parallel to
	// rt.tasks; affLabels is the number of labels handed out so far.
	// Incremental tenant operations extend and filter these instead of
	// re-flooding the whole graph, so a splice costs O(tenant).
	aff       []int
	affLabels int

	// Epoch-mode state.
	stopFlag   atomic.Bool
	rendezvous atomic.Bool
	progress   atomic.Uint64 // bumped once per productive worker pass
	passes     []passCounter // per-worker pass counts
	parkMu     sync.Mutex
	parkCond   *sync.Cond
	parked     int

	// Synchronized control operations (SyncDo): handler reads and
	// writes, hot-swaps and other control-plane work submitted from
	// other goroutines. Ops run only at quiescent points — at a round
	// boundary, at an epoch rendezvous, or directly when no run is
	// active — so they never race the dataplane. runMu is held for the
	// whole of RunRound and runEpochs; a direct SyncDo drain holds it
	// too, which is what makes "no run active" a real quiescent point.
	runMu   sync.Mutex
	opMu    sync.Mutex
	ops     []*syncOp
	opCount atomic.Int32
}

// syncOp is one queued control operation.
type syncOp struct {
	fn   func()
	done chan struct{}
}

// passCounter is a cache-line padded per-worker counter, so the
// monitor's polling does not bounce lines between workers.
type passCounter struct {
	v atomic.Uint64
	_ [56]byte
}

// sharedEntry is one schedulable unit: a task, the number of times it
// runs per pass (its ScheduleInfo weight), and its placement. The
// running flag is the claim a worker holds while executing the task;
// it is also the happens-before edge between consecutive executions on
// different workers.
type sharedEntry struct {
	task    Task
	runs    int
	pinned  int // owning worker for flow-affine tasks, -1 if stealable
	running atomic.Bool
}

// schedPlan is an immutable task partition snapshot.
type schedPlan struct {
	perWorker [][]*sharedEntry
}

// NewScheduler builds a P-worker scheduler for an assembled router.
// The simulated-CPU cost model is single-threaded by design (it is the
// calibrated model of one Pentium III), so a parallel scheduler refuses
// routers built with one attached.
func NewScheduler(rt *Router, workers int) (*Scheduler, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > 1 && rt.CPU != nil {
		return nil, fmt.Errorf("core: parallel scheduler cannot run with the simulated CPU cost model attached")
	}
	s := &Scheduler{
		rt:      rt,
		workers: workers,
		passes:  make([]passCounter, workers),
	}
	s.parkCond = sync.NewCond(&s.parkMu)
	if workers > 1 {
		// Analysis and arming happen before any worker goroutine
		// exists, so the flag flips and hint stores are race-free.
		tr := rt.analyzeTasks()
		s.arm(rt, tr)
		s.partition(tr)
	} else {
		s.partition(nil)
	}
	return s, nil
}

// Workers returns the worker count.
func (s *Scheduler) Workers() int { return s.workers }

// Router returns the router the scheduler currently drives (the
// replacement, after a hot-swap).
func (s *Scheduler) Router() *Router { return s.rt }

// arm switches a router's elements to parallel operation, guided by
// the task-reach analysis: an element touched by two or more tasks
// gets atomic telemetry counters and its Synchronizer guard; an
// element proven exclusive to one task keeps plain counters and no
// guard, because a task never runs on two workers concurrently (the
// claim flag, and in round mode the join between rounds, provide the
// happens-before edge when a task migrates). ConcurrencyHinter
// elements (Queue) additionally learn their exact producer and
// consumer task counts, selecting the single-producer/single-consumer
// ring fast paths. It must run before any worker goroutine touches the
// router.
func (s *Scheduler) arm(rt *Router, tr *taskReach) {
	counts := tr.touchCounts(rt)
	for i, e := range rt.elements {
		if e == nil {
			continue // removed by an incremental tenant delete
		}
		shared := counts[i] > 1
		e.base().stats.shared = shared
		if sy, ok := e.(Synchronizer); ok && shared {
			sy.EnableSync()
		}
		if h, ok := e.(ConcurrencyHinter); ok {
			h.HintConcurrency(tr.accessCounts(i))
		}
	}
}

// flowAffinity assigns flow-steered tasks a label per FlowSteerer
// output: every task that consumes from a steered output's downstream
// region — transitively, across further queues — shares that output's
// label, so the whole per-flow path lands on one worker. Unsteered
// tasks get -1. The second result is the number of labels assigned, so
// an incremental splice can offset a subrouter's labels past the ones
// already in use.
func flowAffinity(rt *Router, tr *taskReach) ([]int, int) {
	aff := make([]int, len(rt.tasks))
	for i := range aff {
		aff[i] = -1
	}
	if tr == nil {
		return aff, 0
	}
	label := 0
	for ei, e := range rt.elements {
		if _, ok := e.(FlowSteerer); !ok {
			continue
		}
		nout := len(rt.proc.Out[ei])
		for o := 0; o < nout; o++ {
			down := map[int]bool{}
			for _, d := range graph.PushFlood(rt.Graph, rt.proc, ei, o) {
				down[d] = true
			}
			for changed := true; changed; {
				changed = false
				for t := range rt.tasks {
					if aff[t] >= 0 {
						continue
					}
					hit := down[rt.taskElems[t]]
					if !hit {
						for d := range tr.pullFrom[t] {
							if down[d] {
								hit = true
								break
							}
						}
					}
					if !hit {
						continue
					}
					aff[t] = label + o
					for d := range tr.pushInto[t] {
						down[d] = true
					}
					changed = true
				}
			}
		}
		label += nout
	}
	return aff, label
}

// partition recomputes the affinity table from scratch (construction
// and hot-swap, where the whole router is new) and rebuilds the plan.
func (s *Scheduler) partition(tr *taskReach) {
	s.aff, s.affLabels = flowAffinity(s.rt, tr)
	s.rebuildPlan()
}

// rebuildPlan rebuilds the task partition from the current router and
// the stored affinity table: flow-affine tasks are pinned to
// label-modulo-P workers and are not stealable; the rest round-robin
// and may be stolen by idle workers.
func (s *Scheduler) rebuildPlan() {
	per := make([][]*sharedEntry, s.workers)
	next := 0
	for i := range s.rt.tasks {
		e := &sharedEntry{task: s.rt.tasks[i], runs: s.rt.weights[i], pinned: -1}
		var w int
		if s.aff[i] >= 0 {
			w = s.aff[i] % s.workers
			e.pinned = w
		} else {
			w = next % s.workers
			next++
		}
		per[w] = append(per[w], e)
	}
	s.plan.Store(&schedPlan{perWorker: per})
}

// SpliceTenant splices a freshly built, disjoint subrouter into the
// running router — the incremental counterpart of Hotswap for a tenant
// create. In parallel mode the subrouter's elements are armed from its
// own task-reach analysis first; because the subgraph is disjoint from
// everything already installed (the management plane combines tenants
// with zero links), the sub-local analysis is exact. The caller must
// hold a quiescent point (call from inside SyncDo); the method must
// not re-enter SyncDo.
func (s *Scheduler) SpliceTenant(sub *Router) error {
	if s.workers > 1 && sub.CPU != nil {
		return fmt.Errorf("core: splice: parallel scheduler cannot adopt a router with the simulated CPU cost model attached")
	}
	var tr *taskReach
	if s.workers > 1 {
		tr = sub.analyzeTasks()
		s.arm(sub, tr)
	}
	subAff, labels := flowAffinity(sub, tr)
	if err := s.rt.Splice(sub); err != nil {
		return err
	}
	for _, a := range subAff {
		if a >= 0 {
			a += s.affLabels
		}
		s.aff = append(s.aff, a)
	}
	s.affLabels += labels
	s.rebuildPlan()
	return nil
}

// RemoveTenant removes every element under the given name prefix from
// the running router, returning the removed elements so the caller can
// release external resources. Same quiescent-point contract as
// SpliceTenant.
func (s *Scheduler) RemoveTenant(prefix string) []Element {
	removed, taskMask := s.rt.RemoveByPrefix(prefix)
	kept := s.aff[:0]
	for t, dead := range taskMask {
		if !dead {
			kept = append(kept, s.aff[t])
		}
	}
	s.aff = kept
	s.rebuildPlan()
	return removed
}

// SwapTenant replaces the subgraph under prefix with sub, transplanting
// state between same-named elements with the full hot-swap's own
// routine (Router.Hotswap, which adopts the outgoing tenant's guard
// generations). Sub's element names must all lie under prefix
// or at least not collide with surviving elements; the check runs
// before any mutation. Same quiescent-point contract as SpliceTenant.
func (s *Scheduler) SwapTenant(prefix string, sub *Router) ([]Element, error) {
	if s.workers > 1 && sub.CPU != nil {
		return nil, fmt.Errorf("core: swap: parallel scheduler cannot adopt a router with the simulated CPU cost model attached")
	}
	for name := range sub.byName {
		if _, clash := s.rt.byName[name]; clash && !strings.HasPrefix(name, prefix) {
			return nil, fmt.Errorf("core: swap: element %q collides outside prefix %q", name, prefix)
		}
	}
	if err := s.rt.Hotswap(sub); err != nil {
		return nil, err
	}
	removed := s.RemoveTenant(prefix)
	return removed, s.SpliceTenant(sub)
}

// Hotswap replaces the scheduled router with next at a quiescent
// point: element state transplants across by name (Router.Hotswap),
// the task partition is rebuilt from next's tasks, and — in parallel
// mode — next's elements are armed for concurrent access before any
// worker sees them. Same quiescent-point contract as SpliceTenant: a
// failed transplant returns the error to the SyncDo closure and leaves
// the old router installed.
func (s *Scheduler) Hotswap(next *Router) error {
	if s.workers > 1 && next.CPU != nil {
		return fmt.Errorf("core: hotswap: parallel scheduler cannot adopt a router with the simulated CPU cost model attached")
	}
	var tr *taskReach
	if s.workers > 1 {
		// Arm before transplant so transplanted counters land in an
		// already-shared stats block.
		tr = next.analyzeTasks()
		s.arm(next, tr)
	}
	if err := s.rt.Hotswap(next); err != nil {
		return err
	}
	s.rt = next
	s.partition(tr)
	return nil
}

// SyncDo runs fn at the scheduler's next quiescent point and blocks
// until it has run. Safe to call from any goroutine while RunRound or
// RunUntilIdle is executing: in round mode the op runs at the next
// round boundary, in epoch mode the monitor rendezvouses the workers
// first, and when no run is active at all the op runs immediately on
// the calling goroutine. fn sees a dataplane with no task mid-flight,
// so handler writes that restructure element state (Queue capacity,
// RED thresholds) cannot tear against traffic. fn must not call back
// into the scheduler's run or SyncDo entry points.
func (s *Scheduler) SyncDo(fn func()) {
	op := &syncOp{fn: fn, done: make(chan struct{})}
	s.opMu.Lock()
	s.ops = append(s.ops, op)
	s.opCount.Add(1)
	s.opMu.Unlock()
	for {
		select {
		case <-op.done:
			return
		default:
		}
		if s.runMu.TryLock() {
			// No run is active: this goroutine is the quiescent point.
			s.drainOps()
			s.runMu.Unlock()
		}
		select {
		case <-op.done:
			return
		default:
			runtime.Gosched()
		}
	}
}

// drainOps runs every queued control operation. Callers must hold
// runMu (directly or by being inside a run) and be at a quiescent
// point.
func (s *Scheduler) drainOps() {
	for {
		s.opMu.Lock()
		ops := s.ops
		s.ops = nil
		s.opMu.Unlock()
		if len(ops) == 0 {
			return
		}
		for _, op := range ops {
			op.fn()
			s.opCount.Add(-1)
			close(op.done)
		}
	}
}

// ReadHandler reads "element.handler" at a quiescent point, so the
// value is a consistent snapshot even under the free-running epoch
// scheduler.
func (s *Scheduler) ReadHandler(path string) (string, error) {
	var v string
	var err error
	s.SyncDo(func() { v, err = s.rt.ReadHandler(path) })
	return v, err
}

// WriteHandler writes "element.handler value" at a quiescent point.
// This is the only safe way to drive state-restructuring write
// handlers while the scheduler is running.
func (s *Scheduler) WriteHandler(path, value string) error {
	var err error
	s.SyncDo(func() { err = s.rt.WriteHandler(path, value) })
	return err
}

// RunRound runs every task once (weight times each) across the workers
// and reports whether any did useful work — the parallel equivalent of
// Router.RunTaskRound, with the same idle-detection semantics. Workers
// join at the end of the round, so callers may inspect or swap the
// router between rounds.
func (s *Scheduler) RunRound() bool {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	// Round boundary: no worker exists here, so queued control ops run
	// race-free. A router installed by one of them gets this round: its
	// tasks are the ones that run below.
	s.drainOps()
	if s.workers == 1 {
		return s.rt.RunTaskRound()
	}
	var any atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			if s.runPass(self, false) {
				any.Store(true)
			}
		}(w)
	}
	wg.Wait()
	return any.Load()
}

// runPass is the one worker pass both run modes share: walk the
// worker's own slice of the plan, claiming each task, running it
// weight times and releasing it. With steal set, a pass that found
// nothing productive then tries to help by running stealable tasks
// from its peers until one is productive. Claim flags keep every task
// on at most one worker; without stealing nobody contends for them, so
// a barrier round runs every task exactly weight times.
func (s *Scheduler) runPass(self int, steal bool) bool {
	plan := s.plan.Load()
	did := false
	for off := 0; off < s.workers; off++ {
		own := off == 0
		if !own && (did || !steal) {
			break
		}
		for _, e := range plan.perWorker[(self+off)%s.workers] {
			if !own && e.pinned >= 0 {
				continue // flow-affine: never leaves its worker
			}
			if !e.running.CompareAndSwap(false, true) {
				continue // a thief (or its owner) is running it this instant
			}
			for r := 0; r < e.runs; r++ {
				if e.task.RunTask() {
					did = true
				}
			}
			e.running.Store(false)
			if !own && did {
				return true
			}
		}
	}
	return did
}

// workerLoop is one epoch-mode worker: free-run passes, publishing
// progress and pass counts for the monitor, parking only when a
// rendezvous is requested.
func (s *Scheduler) workerLoop(self int, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if s.stopFlag.Load() {
			return
		}
		if s.rendezvous.Load() {
			s.park()
			continue
		}
		did := s.runPass(self, true)
		if did {
			s.progress.Add(1)
		}
		s.passes[self].v.Add(1)
		if !did {
			runtime.Gosched()
		}
	}
}

// park blocks the worker until the rendezvous ends (or shutdown).
func (s *Scheduler) park() {
	s.parkMu.Lock()
	s.parked++
	s.parkCond.Broadcast() // the monitor may be waiting for full attendance
	for s.rendezvous.Load() && !s.stopFlag.Load() {
		s.parkCond.Wait()
	}
	s.parked--
	s.parkMu.Unlock()
}

// quiesce parks every worker, runs fn at the quiescent point, and
// releases them.
func (s *Scheduler) quiesce(fn func()) {
	s.rendezvous.Store(true)
	s.parkMu.Lock()
	for s.parked < s.workers {
		s.parkCond.Wait()
	}
	s.parkMu.Unlock()
	fn()
	s.rendezvous.Store(false)
	s.parkMu.Lock()
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
}

// waitFullPass blocks until every worker has completed at least one
// full pass begun after the call (two pass-count increments guarantee
// one fully contained pass). It returns early, reporting false, when a
// control operation is queued.
func (s *Scheduler) waitFullPass() bool {
	base := make([]uint64, s.workers)
	for w := range base {
		base[w] = s.passes[w].v.Load()
	}
	for {
		done := true
		for w := range base {
			if s.passes[w].v.Load() < base[w]+2 {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if s.opCount.Load() > 0 {
			return false
		}
		runtime.Gosched()
	}
}

// runEpochs drives epoch mode: spawn persistent workers, watch the
// progress counter, and declare idle when a full pass everywhere moves
// it nowhere. Returns the number of productive epochs observed (an
// epoch is at least one full pass per worker, so the count is coarser
// than RunRound rounds but has the same "0 means nothing happened"
// meaning).
func (s *Scheduler) runEpochs(maxEpochs int) int {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.drainOps()
	s.stopFlag.Store(false)
	s.rendezvous.Store(false)
	s.progress.Store(0)
	for i := range s.passes {
		s.passes[i].v.Store(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go s.workerLoop(w, &wg)
	}
	productive := 0
	for productive < maxEpochs {
		if s.opCount.Load() > 0 {
			// A router installed here gets its first epoch: the loop
			// waits out a full pass before idle detection can bite.
			s.quiesce(s.drainOps)
			continue
		}
		p0 := s.progress.Load()
		if !s.waitFullPass() {
			continue // rendezvous request arrived mid-wait
		}
		if s.progress.Load() != p0 {
			productive++
			continue
		}
		break // full pass everywhere, no progress: quiescent
	}
	s.stopFlag.Store(true)
	s.parkMu.Lock()
	s.parkCond.Broadcast() // release anyone parked
	s.parkMu.Unlock()
	wg.Wait()
	// Ops enqueued while shutdown raced the monitor run here, with all
	// workers gone, so no SyncDo caller is left spinning.
	s.drainOps()
	return productive
}

// RunUntilIdle drives the router until no task does useful work. With
// one worker it runs barrier rounds exactly like Router.RunUntilIdle;
// with more it free-runs in epoch mode, where workers rendezvous only
// for control operations and shutdown. maxRounds bounds the productive
// rounds/epochs; the return value is how many occurred.
func (s *Scheduler) RunUntilIdle(maxRounds int) int {
	if s.workers == 1 {
		rounds := 0
		for rounds < maxRounds && s.RunRound() {
			rounds++
		}
		return rounds
	}
	return s.runEpochs(maxRounds)
}

// RunParallelUntilIdle builds a scheduler with the given worker count
// and drives the router until idle — the parallel counterpart of
// RunUntilIdle.
func (rt *Router) RunParallelUntilIdle(workers, maxRounds int) (int, error) {
	s, err := NewScheduler(rt, workers)
	if err != nil {
		return 0, err
	}
	return s.RunUntilIdle(maxRounds), nil
}
