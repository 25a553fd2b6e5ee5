package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded only here, in the harness's wrappers, around calls
// into a layer's public functions; spans inside the program are a later
// issue. A span's self time is its duration minus the part its children
// cover, so the self times of everything under a root span add up to the
// root's duration exactly, and "layers sum to the end-to-end number" is
// a statement about how much of the timed section root spans cover.

var epoch = time.Now()

// nanotime is the benchmark's one clock: monotonic ns since start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// layerID names the layer a span bills its self time to.
type layerID uint8

const (
	layBench     layerID = iota // harness: offering bursts, checking output
	layTrace                    // the cost of recording spans, budgeted as its own layer
	layCoreRound                // Router.RunTaskRound / Scheduler.RunUntilIdle minus device callbacks
	layDevRx                    // in-memory device RX: packet.New on a prebuilt frame
	layDevTx                    // in-memory device TX: output check, packet.Kill
	layGenSend                  // sock-udp: generator sendto
	layIdle                     // sock-udp: sleeping while frames are in the kernel or pump
	layAdapterRx                // io.Device RX minus Backend.Recv
	layBackendRx                // io.UDP.Recv
	layAdapterTx                // io.Device TX minus Backend.Send
	layBackendTx                // io.UDP.Send
	layMgmtOp                   // mgmt.Plane control operation
	numLayers
)

var layerNames = [numLayers]string{
	"bench", "bench.trace", "core.round", "dev.rx", "dev.tx", "gen.send", "idle",
	"io.adapter_rx", "io.backend_recv", "io.adapter_tx", "io.backend_send", "mgmt.op",
}

// span is one recorded call into a layer. Parent is the ring sequence
// number of the enclosing span, -1 for a root; spans of one burst,
// window or control op share Op.
type span struct {
	Seq    int64  `json:"seq"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
}

type openSpan struct {
	seq      int64
	layer    layerID
	start    int64
	children int64 // ns covered by direct children
	nchild   int64
}

// tracer keeps the last len(ring) spans for the trace file and bills
// every span's self time to its layer as the span closes. A nil *tracer
// records nothing, so the wrappers call it unconditionally.
//
// Reading the clock is not free (75 ns on the reference host), and a
// span reads it twice. costIn is the part of one begin/end pair that
// falls inside the span's own interval, costOut the part that falls in
// its parent's; end() moves both out of the layers' self times and into
// layTrace, so tracing shows up as a layer instead of inflating the
// others.
type tracer struct {
	ring    []span
	next    int64
	stack   []openSpan
	op      int64
	self    [numLayers]int64
	count   [numLayers]int64
	costIn  int64
	costOut int64
}

func newTracer(ringSize int) *tracer {
	t := &tracer{ring: make([]span, ringSize), stack: make([]openSpan, 0, 16)}
	t.calibrate()
	return t
}

// calibrate measures the cost of an empty span from inside a parent.
func (t *tracer) calibrate() {
	const n = 20000
	best := int64(1 << 62)
	bestIn := int64(0)
	for rep := 0; rep < 5; rep++ {
		*t = tracer{ring: t.ring, stack: t.stack[:0]}
		t0 := nanotime()
		t.begin(layBench, t0)
		for i := 0; i < n; i++ {
			t.begin(layDevRx, nanotime())
			t.end(nanotime())
		}
		t1 := nanotime()
		t.end(t1)
		if d := (t1 - t0) / n; d < best {
			best, bestIn = d, t.self[layDevRx]/n
		}
	}
	*t = tracer{ring: t.ring, stack: t.stack[:0], costIn: bestIn, costOut: best - bestIn}
}

// setOp sets the operation id that subsequent spans carry.
func (t *tracer) setOp(id int64) {
	if t != nil {
		t.op = id
	}
}

// begin opens a span of the given layer at time now.
func (t *tracer) begin(l layerID, now int64) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{seq: t.next, layer: l, start: now})
	t.next++
}

// end closes the innermost open span at time now.
func (t *tracer) end(now int64) {
	if t == nil {
		return
	}
	top := len(t.stack) - 1
	s := t.stack[top]
	t.stack = t.stack[:top]
	dur := now - s.start
	parent := int64(-1)
	if top > 0 {
		p := &t.stack[top-1]
		p.children += dur
		p.nchild++
		parent = p.seq
	}
	overhead := t.costIn + s.nchild*t.costOut
	t.self[s.layer] += dur - s.children - overhead
	t.self[layTrace] += overhead
	t.count[s.layer]++
	t.ring[s.seq%int64(len(t.ring))] = span{
		Seq: s.seq, Name: layerNames[s.layer], Start: s.start, End: now, Parent: parent, Op: t.op,
	}
}

// reset forgets accumulated self times (after warm-up) but keeps the
// calibration.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.self, t.count = [numLayers]int64{}, [numLayers]int64{}
}

// selfTotal is the sum of all layers' self times, which equals the sum
// of the root spans' durations minus the clock cost billed to their
// (span-less) callers.
func (t *tracer) selfTotal() int64 {
	var sum int64
	for _, v := range t.self {
		sum += v
	}
	return sum
}

// traceFile is the on-disk form of a traced run: the newest spans in the
// ring, oldest first, and each layer's total self time over the whole
// traced section (not just the spans that still fit the ring).
type traceFile struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	SpanCostNS [2]int64         `json:"span_cost_in_out_ns"`
	SelfNS     map[string]int64 `json:"layer_self_ns"`
	Spans      map[string]int64 `json:"layer_spans"`
	Ring       []span           `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	tf := traceFile{
		Workload: workload, Seed: seed, SpanCostNS: [2]int64{t.costIn, t.costOut},
		SelfNS: map[string]int64{}, Spans: map[string]int64{},
	}
	for l := layerID(0); l < numLayers; l++ {
		if t.count[l] > 0 || t.self[l] != 0 {
			tf.SelfNS[layerNames[l]] = t.self[l]
			tf.Spans[layerNames[l]] = t.count[l]
		}
	}
	n := int64(len(t.ring))
	first := t.next - n
	if first < 0 {
		first = 0
	}
	for seq := first; seq < t.next; seq++ {
		if s := t.ring[seq%n]; s.Seq == seq {
			tf.Ring = append(tf.Ring, s)
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
