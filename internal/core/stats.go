package core

import "sync/atomic"

// Per-element live statistics. Every packet transfer between two ports
// is accounted on both endpoints (the sender's out counters and the
// receiver's in counters), every Base.Drop is accounted on the dropping
// element, and every Work/Charge call is mirrored into the element's
// cycle counter. The accounting never touches the simcpu cost model, so
// attaching telemetry does not move the calibrated Figure 8/9 numbers.
//
// The run loop's goroutine is the only writer, so updates are plain
// adds. Reads go through atomic loads; a reader on another goroutine
// samples a running router through Scheduler.SyncDo.

// ElemStats holds one element's live counters.
type ElemStats struct {
	pktsIn   int64
	bytesIn  int64
	pktsOut  int64
	bytesOut int64
	drops    int64
	cycles   int64
}

func (s *ElemStats) addIn(pkts, bytes int64) {
	s.pktsIn += pkts
	s.bytesIn += bytes
}

func (s *ElemStats) addOut(pkts, bytes int64) {
	s.pktsOut += pkts
	s.bytesOut += bytes
}

func (s *ElemStats) addDrops(n int64) { s.drops += n }

func (s *ElemStats) addCycles(c int64) { s.cycles += c }

// Transplant copies o's counters into s, replacing whatever s held.
// Hot-swap uses it to carry an element's telemetry across a
// configuration replacement so counters stay continuous. Both routers
// are stopped when it runs, but the stores are atomic anyway so a
// handler sampling from another goroutine cannot observe torn values.
func (s *ElemStats) Transplant(o *ElemStats) {
	atomic.StoreInt64(&s.pktsIn, atomic.LoadInt64(&o.pktsIn))
	atomic.StoreInt64(&s.bytesIn, atomic.LoadInt64(&o.bytesIn))
	atomic.StoreInt64(&s.pktsOut, atomic.LoadInt64(&o.pktsOut))
	atomic.StoreInt64(&s.bytesOut, atomic.LoadInt64(&o.bytesOut))
	atomic.StoreInt64(&s.drops, atomic.LoadInt64(&o.drops))
	atomic.StoreInt64(&s.cycles, atomic.LoadInt64(&o.cycles))
}

// PacketsIn returns the number of packets the element received on its
// input ports.
func (s *ElemStats) PacketsIn() int64 { return atomic.LoadInt64(&s.pktsIn) }

// BytesIn returns the bytes received on input ports.
func (s *ElemStats) BytesIn() int64 { return atomic.LoadInt64(&s.bytesIn) }

// PacketsOut returns the packets the element emitted: port pushes,
// answered pulls, and deliveries recorded with CountDelivered.
func (s *ElemStats) PacketsOut() int64 { return atomic.LoadInt64(&s.pktsOut) }

// BytesOut returns the bytes emitted.
func (s *ElemStats) BytesOut() int64 { return atomic.LoadInt64(&s.bytesOut) }

// Drops returns the packets the element terminated without forwarding
// (dropped or consumed), as recorded by Base.Drop/CountDrops.
func (s *ElemStats) Drops() int64 { return atomic.LoadInt64(&s.drops) }

// Cycles returns the model cycles the element's processing code charged
// (mirrored from Work/Charge even when no cost model is attached).
func (s *ElemStats) Cycles() int64 { return atomic.LoadInt64(&s.cycles) }

// ElementStatsReport is one element's statistics snapshot, shaped for
// JSON output (click -report, click-bench -json).
type ElementStatsReport struct {
	Name       string `json:"name"`
	Class      string `json:"class"`
	PacketsIn  int64  `json:"packets_in"`
	BytesIn    int64  `json:"bytes_in"`
	PacketsOut int64  `json:"packets_out"`
	BytesOut   int64  `json:"bytes_out"`
	Drops      int64  `json:"drops"`
	Cycles     int64  `json:"cycles"`
}

// StatsReport snapshots every element's counters in graph order.
func (rt *Router) StatsReport() []ElementStatsReport {
	reps := make([]ElementStatsReport, 0, len(rt.elements))
	for _, e := range rt.elements {
		if e == nil {
			continue // removed by an incremental tenant delete
		}
		b := e.base()
		s := &b.stats
		reps = append(reps, ElementStatsReport{
			Name:       b.name,
			Class:      b.class,
			PacketsIn:  s.PacketsIn(),
			BytesIn:    s.BytesIn(),
			PacketsOut: s.PacketsOut(),
			BytesOut:   s.BytesOut(),
			Drops:      s.Drops(),
			Cycles:     s.Cycles(),
		})
	}
	return reps
}

// StatsTotals aggregates a report: total transfers observed and total
// packets terminated. In/out totals count every inter-element hop, so
// they are a measure of dispatch volume, not of distinct packets.
type StatsTotals struct {
	PacketsIn  int64 `json:"packets_in"`
	BytesIn    int64 `json:"bytes_in"`
	PacketsOut int64 `json:"packets_out"`
	BytesOut   int64 `json:"bytes_out"`
	Drops      int64 `json:"drops"`
	Cycles     int64 `json:"cycles"`
}

// Totals sums a stats report.
func Totals(reps []ElementStatsReport) StatsTotals {
	var t StatsTotals
	for _, r := range reps {
		t.PacketsIn += r.PacketsIn
		t.BytesIn += r.BytesIn
		t.PacketsOut += r.PacketsOut
		t.BytesOut += r.BytesOut
		t.Drops += r.Drops
		t.Cycles += r.Cycles
	}
	return t
}
