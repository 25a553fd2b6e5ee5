package elements

import (
	"strconv"
	"testing"

	"repro/internal/packet"
)

// TestQueueHandlersDuringTraffic samples the queue's read handlers
// (length, drops, highwater_length, capacity) from the test goroutine
// while a dataplane goroutine pushes and pulls. Run under -race it
// proves a control-plane reader (a handler poll, the telemetry dump)
// can watch a live queue without tearing: the regression this guards
// against is the handlers reading the occupancy and drop counters with
// plain loads.
func TestQueueHandlersDuringTraffic(t *testing.T) {
	rt := buildRT(t, "i :: Idle -> q :: Queue(64) -> x :: Idle;")
	q := rt.Find("q").(*Queue)
	const offered = 800
	consumed := make(chan int)
	go func() {
		n := 0
		for i := 0; i < offered; i++ {
			// Two pushes per pull: capacity 64 under 800 offered packets
			// forces drops, so the drops/highwater paths are exercised
			// too.
			q.Push(0, udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2)))
			if i%2 == 1 {
				if p := q.Pull(0); p != nil {
					p.Kill()
					n++
				}
			}
		}
		for p := q.Pull(0); p != nil; p = q.Pull(0) {
			p.Kill()
			n++
		}
		consumed <- n
	}()
	for i := 0; i < 200; i++ {
		for _, h := range []string{"q.length", "q.drops", "q.highwater_length", "q.capacity"} {
			v, err := rt.ReadHandler(h)
			if err != nil {
				t.Fatalf("ReadHandler(%s): %v", h, err)
			}
			if _, err := strconv.Atoi(v); err != nil {
				t.Fatalf("ReadHandler(%s) = %q, not a number", h, v)
			}
		}
	}
	n := <-consumed
	drops, _ := rt.ReadHandler("q.drops")
	d, _ := strconv.Atoi(drops)
	if d == 0 {
		t.Error("no drops: the tail-drop path was not exercised")
	}
	if n+d != offered {
		t.Errorf("consumed %d + dropped %d != offered %d", n, d, offered)
	}
}
