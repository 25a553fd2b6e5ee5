package elements

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
)

// TestWriteHandlersDuringTraffic hammers state-restructuring write
// handlers (Queue capacity, RED thresholds) from a second goroutine
// while the run loop forwards traffic. The writes go through
// Scheduler.WriteHandler, which applies them between two rounds: under
// -race this proves a control-plane write cannot land mid-round and
// tear the ring swap inside Queue.SetCapacity or the RED threshold
// fields, the conservation check proves no packet is lost or
// double-counted across capacity swaps, and the guard check proves the
// writes did not skip their GuardConfig invalidation bumps.
func TestWriteHandlersDuringTraffic(t *testing.T) {
	const offered = 60000
	cfg := fmt.Sprintf(
		"src :: InfiniteSource(%d) -> red :: RED(50, 200, 1000) -> q :: Queue(128) -> u :: Unqueue -> d :: Discard;",
		offered)
	rt := buildRT(t, cfg)
	s := core.NewScheduler(rt)

	gen0 := rt.Guards().Load(core.GuardConfig)
	const hammerWrites = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		caps := []string{"32", "64", "512", "128"}
		for i := 0; i < hammerWrites; i++ {
			if err := s.WriteHandler("q.capacity", caps[i%len(caps)]); err != nil {
				t.Errorf("q.capacity: %v", err)
				return
			}
			if err := s.WriteHandler("red.max_thresh", strconv.Itoa(150+i%50)); err != nil {
				t.Errorf("red.max_thresh: %v", err)
				return
			}
			if err := s.WriteHandler("red.min_thresh", strconv.Itoa(10+i%40)); err != nil {
				t.Errorf("red.min_thresh: %v", err)
				return
			}
			// Interleave reads: a consistent snapshot must come back.
			if v, err := s.ReadHandler("q.length"); err != nil {
				t.Errorf("q.length: %v", err)
				return
			} else if _, err := strconv.Atoi(v); err != nil {
				t.Errorf("q.length = %q, not a number", v)
				return
			}
		}
	}()

	s.RunUntilIdle(1 << 20)
	<-done

	read := func(path string) int64 {
		v, err := rt.ReadHandler(path)
		if err != nil {
			t.Fatalf("ReadHandler(%s): %v", path, err)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("ReadHandler(%s) = %q", path, v)
		}
		return n
	}
	emitted := read("src.packets_out")
	delivered := read("d.packets_in")
	qDrops := read("q.drops")
	redDrops := read("red.drops")
	if emitted != offered {
		t.Errorf("source emitted %d, want %d", emitted, offered)
	}
	if delivered+qDrops+redDrops != emitted {
		t.Errorf("conservation: delivered %d + qdrops %d + reddrops %d != emitted %d",
			delivered, qDrops, redDrops, emitted)
	}
	if delivered == 0 {
		t.Error("nothing was delivered")
	}
	// Every capacity/threshold write must have bumped GuardConfig, so
	// fast-path snapshots (FlowCache) cannot keep serving stale state.
	if gen1 := rt.Guards().Load(core.GuardConfig); gen1-gen0 < 3*hammerWrites {
		t.Errorf("GuardConfig advanced %d, want >= %d", gen1-gen0, 3*hammerWrites)
	}
}
