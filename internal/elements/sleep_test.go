package elements

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// cleanCounter is an in-memory device that counts ToDevice runs (each
// begins with a TxClean) and the packets sent.
type cleanCounter struct {
	IdleDevice
	cleans, sent int
}

func (d *cleanCounter) TxClean() int { d.cleans++; return 0 }

func (d *cleanCounter) TxEnqueue(p *packet.Packet) bool {
	d.sent++
	p.Kill()
	return true
}

func deviceRouter(t *testing.T, cfg string, dev *cleanCounter, cpu *simcpu.CPU) *core.Router {
	t.Helper()
	rt, err := core.BuildFromText(cfg, "test", testRegistry(), core.BuildOptions{
		CPU: cpu, Env: map[string]interface{}{"device:eth0": dev}})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, cfg)
	}
	return rt
}

func rounds(rt *core.Router, n int) {
	for i := 0; i < n; i++ {
		rt.RunTaskRound()
	}
}

// A ToDevice whose pull paths all end at Queues is not run while they
// are empty, and a push into any of them wakes it. A pull path that
// reaches another source, or an attached cost model, keeps it running.
func TestToDeviceSleepsWhileQueuesEmpty(t *testing.T) {
	for _, c := range []struct {
		name, cfg string
		cpu       *simcpu.CPU
		queues    []string // pushed into one after another
		idleRuns  int      // ToDevice runs in the first 100 idle rounds
	}{
		{"queue", "i :: Idle -> q :: Queue(8) -> td :: ToDevice(eth0);", nil, []string{"q"}, 1},
		{"burst through Null", "i :: Idle -> q :: Queue(8) -> Null -> td :: ToDevice(eth0, 4);", nil, []string{"q"}, 1},
		{"PrioSched", "i0 :: Idle -> q0 :: Queue(8) -> [0] ps :: PrioSched -> td :: ToDevice(eth0);\n" +
			"i1 :: Idle -> q1 :: Queue(8) -> [1] ps;", nil, []string{"q1", "q0"}, 1},
		{"Idle source", "i0 :: Idle -> q0 :: Queue(8) -> [0] ps :: PrioSched -> td :: ToDevice(eth0);\n" +
			"Idle -> [1] ps;", nil, nil, 100},
		{"cost model", "i :: Idle -> q :: Queue(8) -> td :: ToDevice(eth0);", simcpu.New(simcpu.P0), nil, 100},
	} {
		dev := &cleanCounter{IdleDevice: IdleDevice{Name: "eth0"}}
		rt := deviceRouter(t, c.cfg, dev, c.cpu)
		rounds(rt, 100)
		if dev.cleans != c.idleRuns {
			t.Errorf("%s: ToDevice ran %d times in 100 idle rounds, want %d", c.name, dev.cleans, c.idleRuns)
		}
		for k, q := range c.queues {
			rt.Find(q).(*Queue).Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
			rounds(rt, 100)
			// One run sends the packet, the next finds nothing and sleeps.
			if want := c.idleRuns + 2*(k+1); dev.sent != k+1 || dev.cleans != want {
				t.Errorf("%s: after a push into %s, sent %d and ran %d times, want %d and %d", c.name, q, dev.sent, dev.cleans, k+1, want)
			}
		}
	}
}

// Unqueue sleeps like ToDevice: over an empty Queue it pulls once.
func TestUnqueueSleepsWhileQueueEmpty(t *testing.T) {
	dev := &cleanCounter{IdleDevice: IdleDevice{Name: "eth0"}}
	rt := deviceRouter(t, "i :: Idle -> q :: Queue(8) -> u :: Unqueue -> q2 :: Queue(8) -> td :: ToDevice(eth0);", dev, nil)
	rounds(rt, 100)
	q := rt.Find("q").(*Queue)
	if got := q.Stats().Cycles(); got != costQueueEmptyCheck {
		t.Errorf("empty queue charged %d cycles of checks in 100 rounds, want one check (%d)", got, costQueueEmptyCheck)
	}
	q.Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
	rt.RunTaskRound()
	if dev.sent != 1 {
		t.Errorf("sent %d packets in the round after the push, want 1", dev.sent)
	}
}

// A swap transplants the outgoing Queue's packets into a Queue whose
// ToDevice went to sleep on it while it was empty; they must drain.
func TestSwapIntoSleepingToDeviceDrains(t *testing.T) {
	const cfg = "i :: Idle -> q :: Queue(8) -> td :: ToDevice(eth0);"
	for _, kind := range []string{"tenant swap", "hot-swap"} {
		dev := &cleanCounter{IdleDevice: IdleDevice{Name: "eth0"}}
		old, next := deviceRouter(t, cfg, dev, nil), deviceRouter(t, cfg, dev, nil)
		var s *core.Scheduler
		var swap func() error
		if kind == "tenant swap" {
			s = core.NewScheduler(buildWith(t, "keep :: Idle;"))
			s.SyncDo(func() {
				if err := s.SpliceTenant(old); err != nil {
					t.Fatal(err)
				}
			})
			swap = func() error { _, err := s.SwapTenant(old, next); return err }
		} else {
			s = core.NewScheduler(old)
			swap = func() error { return s.Hotswap(next) }
		}
		s.RunUntilIdle(10)
		for i := 0; i < 3; i++ {
			old.Find("q").(*Queue).Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
		}
		next.RunTaskRound() // next's ToDevice sleeps on its empty Queue
		var err error
		s.SyncDo(func() { err = swap() })
		if err != nil {
			t.Fatal(err)
		}
		s.RunUntilIdle(10)
		if dev.sent != 3 {
			t.Errorf("%s: sent %d transplanted packets, want 3", kind, dev.sent)
		}
	}
}
