package elements

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
)

func seqPacket(i int) *packet.Packet {
	p := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	p.Data()[42], p.Data()[43] = byte(i>>8), byte(i)
	return p
}

func seqOf(p *packet.Packet) int {
	return int(p.Data()[42])<<8 | int(p.Data()[43])
}

func TestQueueBatch(t *testing.T) {
	rt := buildRT(t, "i :: Idle -> q :: Queue(6) -> x :: Idle;")
	q := rt.Find("q").(*Queue)
	ps := make([]*packet.Packet, 8)
	for i := range ps {
		ps[i] = seqPacket(i)
	}
	q.PushBatch(0, ps)
	if q.Len() != 6 || q.Drops != 2 {
		t.Fatalf("len=%d drops=%d after 8 into capacity 6", q.Len(), q.Drops)
	}
	buf := make([]*packet.Packet, 4)
	if n := q.PullBatch(0, buf); n != 4 {
		t.Fatalf("PullBatch returned %d, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if seqOf(buf[i]) != i {
			t.Fatalf("FIFO order violated at %d: got seq %d", i, seqOf(buf[i]))
		}
	}
	if n := q.PullBatch(0, buf); n != 2 || seqOf(buf[0]) != 4 || seqOf(buf[1]) != 5 {
		t.Fatalf("tail dequeue wrong: n=%d", n)
	}
	if n := q.PullBatch(0, buf); n != 0 {
		t.Fatalf("drained queue returned %d", n)
	}
}

// The ring's slot array is a power of two (8 here) but it must hold at
// most the configured 5, and stay FIFO as the cursors wrap the array
// many times over.
func TestQueueWrapsInOrderAtLogicalCapacity(t *testing.T) {
	rt := buildRT(t, "i :: Idle -> q :: Queue(5) -> x :: Idle;")
	q := rt.Find("q").(*Queue)
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for q.Len() < 5 {
			q.Push(0, seqPacket(next))
			next++
		}
		q.Push(0, seqPacket(9999)) // sixth packet: tail-dropped
		if q.Len() != 5 || q.Drops != int64(round+1) {
			t.Fatalf("round %d: len=%d drops=%d, want 5 and %d", round, q.Len(), q.Drops, round+1)
		}
		for k := 0; k < 3; k++ {
			p := q.Pull(0)
			if p == nil || seqOf(p) != want {
				t.Fatalf("round %d: pulled %v, want seq %d", round, p, want)
			}
			p.Kill()
			want++
		}
	}
}

func TestTeeBatch(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> t :: Tee;
t [0] -> s0 :: TestSink;
t [1] -> s1 :: TestSink;
`)
	te := rt.Find("t").(*Tee)
	ps := make([]*packet.Packet, 5)
	for i := range ps {
		ps[i] = seqPacket(i)
	}
	orig := append([]*packet.Packet(nil), ps...)
	te.PushBatch(0, ps)
	s0, s1 := rt.Find("s0").(*sink), rt.Find("s1").(*sink)
	if len(s0.got) != 5 || len(s1.got) != 5 {
		t.Fatalf("sinks got %d/%d packets, want 5/5", len(s0.got), len(s1.got))
	}
	for i := 0; i < 5; i++ {
		if seqOf(s0.got[i]) != i || seqOf(s1.got[i]) != i {
			t.Fatalf("order broken at %d", i)
		}
		// The last output receives the originals; earlier outputs get
		// independent clones.
		if s1.got[i] != orig[i] {
			t.Errorf("final output did not receive original %d", i)
		}
		if s0.got[i] == orig[i] {
			t.Errorf("clone output shares packet %d with the original", i)
		}
	}
}

func TestClassifierBatchRunGrouping(t *testing.T) {
	rt := buildWith(t, `
c :: Classifier(42/00, 42/01, -);
i :: Idle -> c;
c [0] -> s0 :: TestSink;
c [1] -> s1 :: TestSink;
c [2] -> s2 :: TestSink;
`)
	c := rt.Find("c").(*Classifier)
	// Interleave the classes so run grouping has to split and regroup:
	// seq high byte steers (0,0,1,1,0,2,2,1).
	pattern := []int{0, 0, 1, 1, 0, 2, 2, 1}
	ps := make([]*packet.Packet, len(pattern))
	for i, class := range pattern {
		ps[i] = seqPacket(class<<8 | i)
	}
	c.PushBatch(0, ps)
	want := map[string][]int{
		"s0": {0, 1, 4},
		"s1": {2, 3, 7},
		"s2": {5, 6},
	}
	for name, idxs := range want {
		s := rt.Find(name).(*sink)
		if len(s.got) != len(idxs) {
			t.Fatalf("%s got %d packets, want %d", name, len(s.got), len(idxs))
		}
		for i, p := range s.got {
			if seqOf(p)&0xff != idxs[i] {
				t.Errorf("%s packet %d: seq %d, want %d", name, i, seqOf(p)&0xff, idxs[i])
			}
		}
	}
	if c.Matched != int64(len(pattern)) {
		t.Errorf("Matched = %d, want %d", c.Matched, len(pattern))
	}
}

// burstDevice is a BatchDevice only TestDeviceBurstsAllocateNothing
// binds, once per type argument: every receive burst is full and every
// transmitted packet dies.
type burstDevice[T any] struct{ frame []byte }

func (d *burstDevice[T]) DeviceName() string        { return "eth0" }
func (d *burstDevice[T]) RxDequeue() *packet.Packet { return packet.New(d.frame) }
func (d *burstDevice[T]) TxEnqueue(p *packet.Packet) bool {
	p.Kill()
	return true
}
func (d *burstDevice[T]) TxRoom() bool { return true }
func (d *burstDevice[T]) TxClean() int { return 0 }
func (d *burstDevice[T]) RxDequeueBatch(buf []*packet.Packet) int {
	for i := range buf {
		buf[i] = packet.New(d.frame)
	}
	return len(buf)
}
func (d *burstDevice[T]) TxEnqueueBatch(ps []*packet.Packet) int {
	for _, p := range ps {
		p.Kill()
	}
	return len(ps)
}

const burstRounds = 1 << 14

// TestDeviceBurstsAllocateNothing: PollDevice and ToDevice at Burst 32
// on a device type the process has not seen reach the allocator zero
// times. An interface assertion per burst would, now and then, while
// its call site's type cache learned the new type. MemStats counts the
// whole process, and the runtime's own goroutines allocate now and then
// (the scavenger growing a timer heap), so one of three attempts, each
// on a type no call site has seen, must read zero.
func TestDeviceBurstsAllocateNothing(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("headers are not recycled under -race")
	}
	p := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	frame := append([]byte(nil), p.Data()...)
	p.Kill()
	var n uint64
	for _, dev := range []Device{&burstDevice[[1]byte]{frame}, &burstDevice[[2]byte]{frame}, &burstDevice[[3]byte]{frame}} {
		if n = burstMallocs(t, dev); n == 0 {
			return
		}
	}
	t.Errorf("%d rounds at Burst 32 allocated %d times, want 0", burstRounds, n)
}

// burstMallocs builds a fresh router on dev and counts the mallocs of
// burstRounds rounds once the packet pool is warm.
func burstMallocs(t *testing.T, dev Device) uint64 {
	t.Helper()
	rt, err := core.BuildFromText("PollDevice(eth0) -> Queue(64) -> ToDevice(eth0);", "test", NewRegistry(),
		core.BuildOptions{Burst: 32, Env: map[string]interface{}{"device:eth0": dev}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rt.RunTaskRound()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < burstRounds; i++ {
		rt.RunTaskRound()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A Tee pushes each clone as it makes it, so packets through a 3-output
// Tee reach the allocator zero times, scalar and at Burst 32.
func TestTeeAllocatesNothing(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("headers are not recycled under -race")
	}
	for _, burst := range []int{0, 32} {
		rt, err := core.BuildFromText("src :: InfiniteSource -> t :: Tee; t[0] -> Discard; t[1] -> Discard; t[2] -> Discard;",
			"test", NewRegistry(), core.BuildOptions{Burst: burst})
		if err != nil {
			t.Fatal(err)
		}
		rt.RunTaskRound() // warm-up: the pool fills
		if allocs := testing.AllocsPerRun(1000, func() { rt.RunTaskRound() }); allocs != 0 {
			t.Errorf("Burst %d: %v allocations per round through a 3-output Tee, want 0", burst, allocs)
		}
	}
}

// A push cycle may re-enter a hand-written element while the burst of
// one it is running is still live, as Figure 1's ICMPError -> rt loop
// does. Here every clone t makes on output 0 is painted and comes back
// into t once, and t then reads its outer burst again to push the
// original on output 1: the per-port sequences show that the outer
// burst survived the inner one.
func TestPushCycleReentersBurstOfOne(t *testing.T) {
	const config = `
src :: InfiniteSource(3) -> t :: Tee;
t[0] -> sw :: PaintSwitch;
sw[0] -> Paint(1) -> t;
sw[1] -> again :: TestSink;
t[1] -> out :: TestSink;
`
	paints := func(ps []*packet.Packet) []int {
		var got []int
		seen := map[*packet.Packet]bool{}
		for _, p := range ps {
			if seen[p] {
				t.Errorf("packet pushed to a sink twice")
			}
			seen[p] = true
			got = append(got, int(p.Anno.Paint))
		}
		return got
	}
	for _, c := range []struct {
		burst      int
		out, again []int
	}{
		// Each packet in turn: its painted clone, then itself.
		{0, []int{1, 0, 1, 0, 1, 0}, []int{1, 1, 1}},
		// The whole burst's clones on output 0 first, then the burst.
		{32, []int{1, 1, 1, 0, 0, 0}, []int{1, 1, 1}},
	} {
		rt, err := core.BuildFromText(config, "test", testRegistry(), core.BuildOptions{Burst: c.burst})
		if err != nil {
			t.Fatal(err)
		}
		for rt.RunTaskRound() {
		}
		out, again := paints(rt.Find("out").(*sink).got), paints(rt.Find("again").(*sink).got)
		if fmt.Sprint(out) != fmt.Sprint(c.out) || fmt.Sprint(again) != fmt.Sprint(c.again) {
			t.Errorf("Burst %d: out %v, again %v; want %v, %v", c.burst, out, again, c.out, c.again)
		}
	}
}
