package elements

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/packet"
)

// Packet schedulers: pull-to-pull elements that choose which upstream
// queue to service. They are standard Click substrate (a ToDevice
// draining several Queues through a scheduler is the canonical QoS
// configuration) and exercise the pull side of the runtime.

// scheduler is a packet scheduler: pull services the input it chooses,
// or returns nil when none has a packet.
type scheduler interface {
	pull() *packet.Packet
}

// pullEach is the burst transfer of every scheduler s: it fills buf one
// decision at a time, each seeing the state the previous one left, and
// stops at the first empty pull.
func pullEach(s scheduler, buf []*packet.Packet) int {
	n := 0
	for n < len(buf) {
		p := s.pull()
		if p == nil {
			break
		}
		buf[n] = p
		n++
	}
	return n
}

// RoundRobinSched pulls from its inputs in round-robin order, skipping
// empty sources within a round.
type RoundRobinSched struct {
	core.Base
	next int
}

// PullBatch services the next non-empty input for each packet.
func (e *RoundRobinSched) PullBatch(port int, buf []*packet.Packet) int {
	return pullEach(e, buf)
}

func (e *RoundRobinSched) pull() *packet.Packet {
	e.Work()
	n := e.NInputs()
	for i := 0; i < n; i++ {
		idx := (e.next + i) % n
		if p := e.Input(idx).Pull(); p != nil {
			e.next = (idx + 1) % n
			return p
		}
	}
	return nil
}

// PrioSched pulls from the lowest-numbered non-empty input: input 0 is
// the highest priority.
type PrioSched struct{ core.Base }

// PullBatch services inputs in priority order for each packet.
func (e *PrioSched) PullBatch(port int, buf []*packet.Packet) int {
	return pullEach(e, buf)
}

func (e *PrioSched) pull() *packet.Packet {
	e.Work()
	for i := 0; i < e.NInputs(); i++ {
		if p := e.Input(i).Pull(); p != nil {
			return p
		}
	}
	return nil
}

// StrideSched schedules inputs proportionally to configured tickets
// using stride scheduling, Click's proportional-share packet scheduler.
type StrideSched struct {
	core.Base
	tickets []int
	pass    []uint64
	stride  []uint64
	tried   []bool // per-pull scratch: inputs found empty
}

// strideOne is the stride constant (tickets divide it).
const strideOne = 1 << 20

// Configure accepts one ticket count per input.
func (e *StrideSched) Configure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("StrideSched: expects TICKETS per input")
	}
	for i, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil || n <= 0 {
			return fmt.Errorf("StrideSched: bad tickets %q for input %d", a, i)
		}
		e.tickets = append(e.tickets, n)
		e.stride = append(e.stride, uint64(strideOne/n))
		e.pass = append(e.pass, uint64(strideOne/n))
	}
	e.tried = make([]bool, len(args))
	return nil
}

// PullBatch services, for each packet, the input with the minimum pass
// value that has a packet available, advancing its pass.
func (e *StrideSched) PullBatch(port int, buf []*packet.Packet) int {
	return pullEach(e, buf)
}

func (e *StrideSched) pull() *packet.Packet {
	e.Work()
	if len(e.tickets) != e.NInputs() {
		return nil
	}
	tried := e.tried
	clear(tried)
	for range e.pass {
		best := -1
		for i := range e.pass {
			if tried[i] {
				continue
			}
			if best < 0 || e.pass[i] < e.pass[best] {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		if p := e.Input(best).Pull(); p != nil {
			e.pass[best] += e.stride[best]
			return p
		}
		tried[best] = true
	}
	return nil
}

// RatedSource emits packets at a fixed rate against the router's task
// clock: each RunTask emits at most one packet, and no more than RATE
// per simulated... this driver has no global clock, so RatedSource
// meters by task invocations: one packet every INTERVAL task runs.
type RatedSource struct {
	core.Base
	interval int
	limit    int64
	phase    int
	Emitted  int64
	tmpl     *packet.Packet
}

// Configure accepts INTERVAL (task runs per packet, >= 1) and optional
// LIMIT.
func (e *RatedSource) Configure(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("RatedSource: expects INTERVAL [, LIMIT]")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 1 {
		return fmt.Errorf("RatedSource: bad interval %q", args[0])
	}
	e.interval = n
	e.limit = -1
	if len(args) == 2 {
		l, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("RatedSource: bad limit %q", args[1])
		}
		e.limit = l
	}
	e.tmpl = packet.BuildUDP4(
		packet.EtherAddr{0, 160, 201, 1, 1, 1}, packet.EtherAddr{0, 160, 201, 2, 2, 2},
		packet.MakeIP4(10, 0, 0, 2), packet.MakeIP4(10, 0, 2, 2),
		1234, 1234, make([]byte, 14))
	return nil
}

// RunTask emits one packet every interval runs.
func (e *RatedSource) RunTask() bool {
	if e.limit >= 0 && e.Emitted >= e.limit {
		return false
	}
	e.phase++
	if e.phase < e.interval {
		return false
	}
	e.phase = 0
	e.Work()
	e.Emitted++
	e.Output(0).Push(e.tmpl.Clone())
	return true
}

// Unqueue moves packets from its pull input to its push output — the
// bridge from pull context back to push context. By default it moves
// one packet per task run; an optional BURST argument (or the router's
// Burst build option) moves up to BURST packets per run as one batched
// pull + one batched push.
type Unqueue struct {
	core.Base
	Moved   int64
	burst   int
	scratch []*packet.Packet
	sleeps  bool // as ToDevice's
}

// Configure accepts an optional BURST (default 1).
func (e *Unqueue) Configure(args []string) error {
	e.burst = 0
	if len(args) > 1 {
		return fmt.Errorf("Unqueue: too many arguments")
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return fmt.Errorf("Unqueue: bad burst %q", args[0])
		}
		e.burst = n
	}
	return nil
}

// Initialize lets the task sleep while its input is empty, when a push
// wakes it (wakeOnPush).
func (e *Unqueue) Initialize(rt *core.Router) error {
	e.sleeps = wakeOnPush(e.Input(0), &e.Base)
	return nil
}

// RunTask moves up to one burst of packets if available.
func (e *Unqueue) RunTask() bool {
	burst := e.burst
	if burst == 0 {
		burst = e.DefaultBurst()
	}
	if burst <= 1 {
		e.Work()
		p := e.Input(0).Pull()
		if p == nil {
			if e.sleeps {
				e.Sleep()
			}
			return false
		}
		e.Moved++
		e.Output(0).Push(p)
		return true
	}
	if cap(e.scratch) < burst {
		e.scratch = make([]*packet.Packet, burst)
	}
	n := e.Input(0).PullBatch(e.scratch[:burst])
	if n == 0 {
		e.Work()
		if e.sleeps {
			e.Sleep()
		}
		return false
	}
	for i := 0; i < n; i++ {
		e.Work()
	}
	e.Moved += int64(n)
	e.Output(0).PushBatch(e.scratch[:n])
	return true
}
