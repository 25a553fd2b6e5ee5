package elements

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
)

// Discard drops every packet it receives.
type Discard struct {
	core.Base
	Count int64
}

// SimpleAction drops the packet.
func (e *Discard) SimpleAction(p *packet.Packet) *packet.Packet {
	atomic.AddInt64(&e.Count, 1)
	e.Drop(p)
	return nil
}

// Idle never produces packets and silently swallows any it is given; it
// is the canonical way to cap unused ports.
type Idle struct{ core.Base }

// PushBatch discards.
func (e *Idle) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.Drop(p)
	}
}

// PullBatch produces nothing.
func (e *Idle) PullBatch(port int, buf []*packet.Packet) int { return 0 }

// Null passes packets through unchanged (one input, one output).
type Null struct{ core.Base }

// SimpleAction forwards.
func (e *Null) SimpleAction(p *packet.Packet) *packet.Packet { return p }

// Counter counts passing packets and bytes. Counts are updated
// atomically so a driver may sample them from another goroutine.
type Counter struct {
	core.Base
	Packets int64
	Bytes   int64
}

// SimpleAction counts and forwards.
func (e *Counter) SimpleAction(p *packet.Packet) *packet.Packet {
	atomic.AddInt64(&e.Packets, 1)
	atomic.AddInt64(&e.Bytes, int64(p.Len()))
	return p
}

// Queue is the standard FIFO packet queue: push input, pull output,
// tail drop when full. It is the hand-off point between tasks — a
// PollDevice task pushes, a ToDevice or Unqueue task pulls — all on the
// run loop's goroutine. The ring pointer and the counters are atomic
// because read handlers sample them from other goroutines while
// traffic runs.
type Queue struct {
	core.Base
	ring  atomic.Pointer[pktRing]
	Drops int64
	// Enqueued counts accepted packets; read and written atomically.
	Enqueued int64
	// HighWater tracks the maximum occupancy observed; read and written
	// atomically (the "highwater_length" handler samples it live).
	HighWater int64

	// consumer is the task at the end of the queue's pull path, when it
	// sleeps while the queue is empty (wakeOnPush); packets arriving at
	// an empty queue wake it. A pull output has one peer, so one task.
	consumer *core.Base

	// structMu serializes structural operations (SetCapacity,
	// SaveState/RestoreState) against each other. They run at quiescent
	// points — handler writes and hot-swap transplant — not against
	// concurrent dataplane traffic.
	structMu sync.Mutex
}

// DefaultQueueCapacity matches Click's default Queue length.
const DefaultQueueCapacity = 1000

// Configure accepts an optional capacity.
func (e *Queue) Configure(args []string) error {
	capacity := DefaultQueueCapacity
	if len(args) > 1 {
		return fmt.Errorf("Queue: too many arguments")
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("Queue: bad capacity %q", args[0])
		}
		capacity = n
	}
	e.ring.Store(newPktRing(capacity))
	return nil
}

// Len returns the current occupancy. The read is race-safe: two atomic
// cursor loads, no lock, so read handlers can sample a queue the run
// loop is actively pushing and pulling.
func (e *Queue) Len() int { return e.ring.Load().len() }

// Capacity returns the current capacity.
func (e *Queue) Capacity() int { return int(e.ring.Load().logical) }

// SetCapacity resizes the queue at run time (the "capacity" write
// handler), preserving queued packets in FIFO order. Shrinking below
// the current occupancy tail-drops the newest packets — the ones a
// smaller queue would have refused — and counts them as drops.
func (e *Queue) SetCapacity(n int) error {
	if n <= 0 {
		return fmt.Errorf("Queue: bad capacity %d", n)
	}
	e.structMu.Lock()
	defer e.structMu.Unlock()
	next := newPktRing(n)
	e.fill(next, e.drain())
	e.ring.Store(next)
	return nil
}

// drain empties the ring into a new slice, oldest first.
func (e *Queue) drain() []*packet.Packet {
	r := e.ring.Load()
	ps := make([]*packet.Packet, r.len())
	return ps[:r.pop(ps)]
}

// fill pushes ps into r, tail-drops and counts what does not fit, and
// returns how many r took. The drop count is atomic so the drops
// handler can sample it during a run without racing.
func (e *Queue) fill(r *pktRing, ps []*packet.Packet) int {
	n := r.push(ps)
	if d := len(ps) - n; d > 0 {
		atomic.AddInt64(&e.Drops, int64(d))
		for _, p := range ps[n:] {
			e.Drop(p)
		}
	}
	return n
}

// PushBatch enqueues the batch, tail-dropping what does not fit. The
// counters are raised once per burst: occupancy only rises during it,
// so the high-water mark is the same. Packets that arrive at an empty
// queue wake its consumer.
func (e *Queue) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.Work()
		// A queued packet outlives the push that enqueued it; any
		// flow-recording mark is only valid within that push, so it
		// dies here (normally a flow cache's record tap has already
		// cleared it).
		p.Anno.FlowPending = nil
	}
	r := e.ring.Load()
	n := e.fill(r, ps)
	if n == 0 {
		return
	}
	atomic.AddInt64(&e.Enqueued, int64(n))
	occ := r.len()
	if int64(occ) > atomic.LoadInt64(&e.HighWater) {
		atomic.StoreInt64(&e.HighWater, int64(occ))
	}
	if occ == n && e.consumer != nil {
		e.consumer.Wake()
	}
}

// PullBatch dequeues up to len(buf) packets, returning the number
// delivered. An empty queue charges only a cheap occupancy check, so
// idle ToDevice polling does not masquerade as per-packet work.
func (e *Queue) PullBatch(port int, buf []*packet.Packet) int {
	n := e.ring.Load().pop(buf)
	for range n {
		e.Work()
	}
	if n == 0 {
		e.Charge(costQueueEmptyCheck)
	}
	return n
}

// wakeOnPush makes consumer the task every Queue upstream of in wakes.
// It reports whether each pull path from in ends at a Queue through
// elements whose empty pull means every Queue behind them was empty
// (SimpleActions, whose derived pull retries until upstream has nothing,
// and the schedulers, which try every input): only then may consumer
// sleep after an empty pull.
func wakeOnPush(in *core.InPort, consumer *core.Base) bool {
	src, _ := in.Source()
	switch e := src.(type) {
	case *Queue:
		e.consumer = consumer
		return true
	case core.SimpleAction, scheduler:
		up := e.(interface {
			NInputs() int
			Input(i int) *core.InPort
		})
		for i := range up.NInputs() {
			if !wakeOnPush(up.Input(i), consumer) {
				return false
			}
		}
		return up.NInputs() > 0
	}
	return false
}

// RouterLink stands for an inter-router link in configurations produced
// by click-combine (§7.2): it takes the place of router A's Queue +
// ToDevice and router B's PollDevice. Combined configurations exist for
// analysis and cross-router optimization, so the link forwards packets
// synchronously and counts them.
type RouterLink struct {
	core.Base
	Carried int64
}

// SimpleAction forwards into the peer router.
func (e *RouterLink) SimpleAction(p *packet.Packet) *packet.Packet {
	atomic.AddInt64(&e.Carried, 1)
	return p
}

// Tee clones each input packet to every output.
type Tee struct{ core.Base }

// PushBatch clones the batch to every output, output by output; the
// final output gets the originals as one batch. Each clone is pushed as
// it is made, so a Tee allocates nothing.
func (e *Tee) PushBatch(port int, ps []*packet.Packet) {
	for range ps {
		e.Work()
	}
	n := e.NOutputs()
	if n == 0 {
		for _, p := range ps {
			e.Drop(p)
		}
		return
	}
	for i := 0; i < n-1; i++ {
		for _, p := range ps {
			e.Output(i).Push(p.Clone())
		}
	}
	e.Output(n - 1).PushBatch(ps)
}

// StaticSwitch routes every packet to one fixed output chosen by
// configuration; -1 drops everything. click-undead eliminates the
// branches a StaticSwitch never uses (§6.3).
type StaticSwitch struct {
	core.Base
	Port int
}

// Configure accepts the output port number (-1 to drop).
func (e *StaticSwitch) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("StaticSwitch: expects PORT")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < -1 {
		return fmt.Errorf("StaticSwitch: bad port %q", args[0])
	}
	e.Port = n
	return nil
}

// PushBatch routes to the configured output.
func (e *StaticSwitch) PushBatch(port int, ps []*packet.Packet) {
	pushRun(routeRuns(&e.Base, e, ps))
}

func (e *StaticSwitch) route(*packet.Packet) int {
	e.Work()
	return e.Port
}

// InfiniteSource pushes synthetic 64-byte-class UDP packets from a task
// until an optional limit; used by examples and benchmarks.
type InfiniteSource struct {
	core.Base
	limit   int64
	burst   int
	Emitted int64
	tmpl    *packet.Packet
	scratch []*packet.Packet
}

// Configure accepts optional LIMIT (-1 = unlimited, default), BURST
// (packets per task run, default 1), and destination DSTIP and DPORT
// for the synthetic UDP packets.
func (e *InfiniteSource) Configure(args []string) error {
	e.limit = -1
	e.burst = 1
	dst := packet.MakeIP4(10, 0, 2, 2)
	dport := uint16(1234)
	if len(args) > 4 {
		return fmt.Errorf("InfiniteSource: too many arguments")
	}
	if len(args) >= 1 && args[0] != "" {
		n, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("InfiniteSource: bad limit %q", args[0])
		}
		e.limit = n
	}
	if len(args) >= 2 && args[1] != "" {
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("InfiniteSource: bad burst %q", args[1])
		}
		e.burst = n
	}
	if len(args) >= 3 && args[2] != "" {
		ip, err := packet.ParseIP4(args[2])
		if err != nil {
			return fmt.Errorf("InfiniteSource: %v", err)
		}
		dst = ip
	}
	if len(args) == 4 && args[3] != "" {
		n, err := strconv.Atoi(args[3])
		if err != nil || n < 0 || n > 65535 {
			return fmt.Errorf("InfiniteSource: bad port %q", args[3])
		}
		dport = uint16(n)
	}
	e.tmpl = packet.BuildUDP4(
		packet.EtherAddr{0, 160, 201, 1, 1, 1}, packet.EtherAddr{0, 160, 201, 2, 2, 2},
		packet.MakeIP4(10, 0, 0, 2), dst,
		1234, dport, make([]byte, 14))
	return nil
}

// RunTask emits up to one burst. Bursts of more than one packet leave
// as a single batched transfer (a batch of one is a plain push). A
// router-wide Burst build option raises the effective burst of sources
// configured with the default of 1.
func (e *InfiniteSource) RunTask() bool {
	n := e.burst
	if d := e.DefaultBurst(); d > n {
		n = d
	}
	if e.limit >= 0 {
		if left := e.limit - e.Emitted; int64(n) > left {
			n = int(left)
		}
	}
	if n <= 0 {
		return false
	}
	if cap(e.scratch) < n {
		e.scratch = make([]*packet.Packet, n)
	}
	batch := e.scratch[:n]
	for i := range batch {
		e.Work()
		batch[i] = e.tmpl.Clone()
	}
	e.Emitted += int64(n)
	e.Output(0).PushBatch(batch)
	return true
}

// RED implements random early detection dropping: when the average
// occupancy of the downstream queues exceeds min-thresh, packets are
// dropped with probability rising to max-p at max-thresh (and always
// beyond it). It finds its queues at initialization by searching
// downstream, as Click's RED does.
type RED struct {
	core.Base
	minThresh int
	maxThresh int
	maxP      float64 // scaled by 1000 in config
	queues    []*Queue
	Drops     int64
	// seed provides deterministic pseudo-randomness.
	seed uint64
}

// Configure accepts MIN-THRESH, MAX-THRESH, MAX-P(×1000).
func (e *RED) Configure(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("RED: expects MIN MAX MAXP")
	}
	var err error
	if e.minThresh, err = strconv.Atoi(args[0]); err != nil || e.minThresh < 0 {
		return fmt.Errorf("RED: bad min threshold %q", args[0])
	}
	if e.maxThresh, err = strconv.Atoi(args[1]); err != nil || e.maxThresh <= e.minThresh {
		return fmt.Errorf("RED: bad max threshold %q", args[1])
	}
	p, err := strconv.Atoi(args[2])
	if err != nil || p <= 0 || p > 1000 {
		return fmt.Errorf("RED: bad max-p %q", args[2])
	}
	e.maxP = float64(p) / 1000
	e.seed = 0x9e3779b97f4a7c15
	return nil
}

// Initialize locates downstream queues by breadth-first search along
// push connections, as Click's RED does.
func (e *RED) Initialize(rt *core.Router) error {
	type porter interface {
		NOutputs() int
		Output(int) *core.OutPort
	}
	seen := map[core.Element]bool{}
	frontier := []porter{e}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for i := 0; i < cur.NOutputs(); i++ {
			out := cur.Output(i)
			if !out.Connected() {
				continue
			}
			tgt, _ := out.Target()
			if tgt == nil || seen[tgt] {
				continue
			}
			seen[tgt] = true
			if q, ok := tgt.(*Queue); ok {
				e.queues = append(e.queues, q)
				continue
			}
			if pr, ok := tgt.(porter); ok {
				frontier = append(frontier, pr)
			}
		}
	}
	if len(e.queues) == 0 {
		return fmt.Errorf("RED: no downstream Queue found")
	}
	return nil
}

func (e *RED) rand() float64 {
	// xorshift64*; deterministic for reproducible experiments.
	e.seed ^= e.seed >> 12
	e.seed ^= e.seed << 25
	e.seed ^= e.seed >> 27
	return float64(e.seed*0x2545f4914f6cdd1d>>11) / float64(1<<53)
}

// PushBatch applies the drop decision to each packet and forwards each
// survivor before judging the next. RED is a per-packet loop rather than
// a SimpleAction because each decision reads the queue lengths the
// previous packet left behind: run over a batch before any of it is
// forwarded, it would judge every packet against the occupancy at the
// start of the batch.
func (e *RED) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.Work()
		if e.drop() {
			// Atomic: the drops handler samples the count live.
			atomic.AddInt64(&e.Drops, 1)
			e.Drop(p)
			continue
		}
		e.Output(0).Push(p)
	}
}

// drop decides from the downstream queues' average occupancy.
func (e *RED) drop() bool {
	total := 0
	for _, q := range e.queues {
		total += q.Len()
	}
	switch avg := total / len(e.queues); {
	case avg < e.minThresh:
		return false
	case avg >= e.maxThresh:
		return true
	default:
		frac := float64(avg-e.minThresh) / float64(e.maxThresh-e.minThresh)
		return e.rand() < frac*e.maxP
	}
}

// ScheduleInfo assigns scheduling weights to named tasks: each argument
// is "taskname weight", and a task with weight w runs w times per
// scheduler round (Click uses the same element to seed its stride
// scheduler's tickets).
type ScheduleInfo struct {
	core.Base
	weights map[string]int
}

// Configure parses "name weight" pairs.
func (e *ScheduleInfo) Configure(args []string) error {
	e.weights = map[string]int{}
	for _, a := range args {
		var name string
		var w int
		if _, err := fmt.Sscanf(a, "%s %d", &name, &w); err != nil || w < 1 {
			return fmt.Errorf("ScheduleInfo: bad entry %q (want \"name weight\")", a)
		}
		e.weights[name] = w
	}
	return nil
}

// TaskWeights implements core.TaskWeighter.
func (e *ScheduleInfo) TaskWeights() map[string]int { return e.weights }

// Switch routes every packet to one output port, changeable at run time
// through the "switch" write handler (Click's hot-swappable cousin of
// StaticSwitch; because the port can change, click-undead must leave it
// alone).
type Switch struct {
	core.Base
	port int
}

// Configure accepts the initial output port (-1 to drop).
func (e *Switch) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Switch: expects PORT")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < -1 {
		return fmt.Errorf("Switch: bad port %q", args[0])
	}
	e.port = n
	return nil
}

// PushBatch routes to the current port.
func (e *Switch) PushBatch(port int, ps []*packet.Packet) {
	pushRun(routeRuns(&e.Base, e, ps))
}

func (e *Switch) route(*packet.Packet) int {
	e.Work()
	return e.port
}

// Handlers exports the switchable port.
func (e *Switch) Handlers() []core.Handler {
	return []core.Handler{{
		Name: "switch",
		Read: func() string { return strconv.Itoa(e.port) },
		Write: func(v string) error {
			n, err := strconv.Atoi(v)
			if err != nil || n < -1 {
				return fmt.Errorf("Switch: bad port %q", v)
			}
			e.port = n
			e.BumpGuard(core.GuardConfig)
			return nil
		},
	}}
}

// PaintSwitch routes packets by their paint annotation: paint p leaves
// on output p, out-of-range paints are dropped.
type PaintSwitch struct{ core.Base }

// PushBatch routes by paint.
func (e *PaintSwitch) PushBatch(port int, ps []*packet.Packet) {
	pushRun(routeRuns(&e.Base, e, ps))
}

func (e *PaintSwitch) route(p *packet.Packet) int {
	e.Work()
	return int(p.Anno.Paint)
}

// ToHost hands packets to the host network stack — the "to Linux" arrow
// in the paper's Figure 1. This driver has no host stack, so it counts
// and retains a tail of recent packets for inspection.
type ToHost struct {
	core.Base
	Count  int64
	Recent []*packet.Packet
}

// SimpleAction delivers to the host.
func (e *ToHost) SimpleAction(p *packet.Packet) *packet.Packet {
	e.Count++
	e.CountDelivered(1, int64(p.Len()))
	if len(e.Recent) >= 8 {
		old := e.Recent[0]
		e.Recent = e.Recent[1:]
		old.Kill()
	}
	e.Recent = append(e.Recent, p)
	return nil
}

// Handlers exports the delivery count.
func (e *ToHost) Handlers() []core.Handler {
	return []core.Handler{intHandler("count", func() int64 { return e.Count })}
}
