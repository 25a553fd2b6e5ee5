package core

import (
	"fmt"
	"runtime"
	"sync"
)

// Scheduler is the run loop of a live router: the single polling kernel
// thread of the paper's Click, plus the one seam through which anything
// outside that thread may touch the router. RunRound runs the awake
// tasks (PollDevice loops, ToDevice and Unqueue pulls) weight times on
// the caller's goroutine, exactly as Router.RunTaskRound does, after
// first running whatever control operations other goroutines have
// queued.
//
// A live router changes in exactly one way: a closure handed to SyncDo,
// which runs between two rounds — no task mid-flight — and calls
// Hotswap, SpliceTenant, SwapTenant, RemoveTenant or a handler.
type Scheduler struct {
	rt *Router

	// Control operations submitted from other goroutines (SyncDo):
	// handler reads and writes, hot-swaps, tenant splices. Ops run only
	// at quiescent points — at a round boundary, or directly when no
	// round is running — so they never race the dataplane. runMu is held
	// for the whole of RunRound; a direct SyncDo drain holds it too,
	// which is what makes "no round running" a real quiescent point.
	runMu sync.Mutex
	opMu  sync.Mutex
	ops   []*syncOp
}

// syncOp is one queued control operation.
type syncOp struct {
	fn   func()
	done chan struct{}
}

// NewScheduler returns the run loop for an assembled router.
func NewScheduler(rt *Router) *Scheduler { return &Scheduler{rt: rt} }

// Router returns the router the scheduler currently drives (the
// replacement, after a hot-swap).
func (s *Scheduler) Router() *Router { return s.rt }

// SpliceTenant splices a freshly built, disjoint subrouter into the
// running router — the incremental counterpart of Hotswap for a tenant
// create. The caller must hold a quiescent point (call from inside
// SyncDo); the method must not re-enter SyncDo.
func (s *Scheduler) SpliceTenant(sub *Router) error { return s.rt.Splice(sub) }

// RemoveTenant takes a spliced subrouter back out of the running
// router (Router.Remove), returning its elements so the caller can
// release external resources. Same quiescent-point contract as
// SpliceTenant.
func (s *Scheduler) RemoveTenant(sub *Router) []Element { return s.rt.Remove(sub) }

// SwapTenant replaces the spliced subrouter old with sub, transplanting
// state between same-named elements with the full hot-swap's own
// routine (Router.Hotswap, which adopts the outgoing tenant's guard
// generations). Sub's element names may reuse old's but must not
// collide with any other element; the check runs before any mutation.
// Same quiescent-point contract as SpliceTenant.
func (s *Scheduler) SwapTenant(old, sub *Router) ([]Element, error) {
	for _, ge := range sub.Graph.Elements {
		if e := s.rt.Find(ge.Name); e != nil && old.Find(ge.Name) != e {
			return nil, fmt.Errorf("core: swap: element %q collides outside the swapped subrouter", ge.Name)
		}
	}
	if err := s.rt.Hotswap(sub); err != nil {
		return nil, err
	}
	removed := s.rt.Remove(old)
	return removed, s.rt.Splice(sub)
}

// Hotswap replaces the scheduled router with next at a quiescent
// point: element state transplants across by name (Router.Hotswap) and
// the next round runs next's tasks. Same quiescent-point contract as
// SpliceTenant: a failed transplant returns the error to the SyncDo
// closure and leaves the old router installed.
func (s *Scheduler) Hotswap(next *Router) error {
	if err := s.rt.Hotswap(next); err != nil {
		return err
	}
	s.rt = next
	return nil
}

// SyncDo runs fn at the scheduler's next quiescent point and blocks
// until it has run. Safe to call from any goroutine while RunRound or
// RunUntilIdle is executing: the op runs at the next round boundary,
// and when no round is running at all it runs immediately on the
// calling goroutine. fn sees a dataplane with no task mid-flight, so
// handler writes that restructure element state (Queue capacity, RED
// thresholds) cannot tear against traffic. fn must not call back into
// the scheduler's run or SyncDo entry points.
func (s *Scheduler) SyncDo(fn func()) {
	op := &syncOp{fn: fn, done: make(chan struct{})}
	s.opMu.Lock()
	s.ops = append(s.ops, op)
	s.opMu.Unlock()
	for {
		select {
		case <-op.done:
			return
		default:
		}
		if s.runMu.TryLock() {
			// No round is running: this goroutine is the quiescent point.
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
// runMu.
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
			close(op.done)
		}
	}
}

// ReadHandler reads "element.handler" at a quiescent point, so the
// value is a consistent snapshot of a running router.
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

// RunRound runs the queued control operations, then one task round
// (Router.RunTaskRound) on the caller's goroutine, and reports whether
// any task did useful work. A router installed by one of the operations
// gets this round: its tasks are the ones that run.
func (s *Scheduler) RunRound() bool {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.drainOps()
	return s.rt.RunTaskRound()
}

// RunUntilIdle runs rounds until one does no useful work or maxRounds
// have, and returns how many did.
func (s *Scheduler) RunUntilIdle(maxRounds int) int {
	rounds := 0
	for rounds < maxRounds && s.RunRound() {
		rounds++
	}
	return rounds
}
