package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/packet"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON is the drift guard: what the program
// prints is what BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("workloads: BENCHMARK.json has %d, names.go %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, names.go %q / %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d, names.go %d", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, names.go %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayerDefs) {
		t.Fatalf("per_layer: BENCHMARK.json has %d, names.go %d", len(bj.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, names.go %+v", i, got, d)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

// TestWorkloadsSmall runs every workload end to end and traced for
// 300 ms at shrunk sizes: outputs verify, every per-layer name the traced
// run emits is a declared one, and every declared one is produced by
// some workload.
func TestWorkloadsSmall(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayerDefs {
		declared[d.Name] = false
	}
	out := t.TempDir()
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			res, err := runChild(w.Name, 1, 300*time.Millisecond, traced, smallScale, "..", out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Verdict.Failed != 0 || res.Verdict.Attempted == 0 {
				t.Errorf("%s traced=%v: verdict %+v", w.Name, traced, res.Verdict)
			}
			if len(res.PktBlocks) == 0 || len(res.SetupBlocks) == 0 || res.Frames == 0 {
				t.Errorf("%s traced=%v: %d blocks, %d setup blocks, %d frames", w.Name, traced, len(res.PktBlocks), len(res.SetupBlocks), res.Frames)
			}
			if !traced {
				continue
			}
			pooled := pool(w, []*childResult{res})
			for name := range pooled.Metrics {
				if _, ok := declared[name]; ok {
					declared[name] = true
				}
			}
			for name, v := range res.Layers {
				if _, ok := declared[name]; !ok {
					t.Errorf("%s: traced run emits undeclared metric %q", w.Name, name)
				}
				if v != 0 {
					declared[name] = true
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", w.Name, err)
			}
			if w.Name == "fwd-base" || w.Name == "sock-udp" {
				if s := res.Layers["bench.layer_sum_share"]; s < 0.95 || s > 1.05 {
					t.Errorf("%s: layer self times cover %.3f of the traced section, want within 5%%", w.Name, s)
				}
			}
		}
	}
	for name, seen := range declared {
		// Invalidations, ring drops and dead elements are counted but do
		// not occur on these workloads.
		quiet := map[string]bool{
			"elements.flowcache_invalidated": true, "io.rx_dropped": true, "opt.undead_removed": true,
		}
		if !seen && !quiet[name] {
			t.Errorf("no workload produces %s", name)
		}
	}
}

// TestSeedsGiveIdenticalInputs: the same seed gives byte-identical
// inputs, another seed gives others.
func TestSeedsGiveIdenticalInputs(t *testing.T) {
	for _, w := range workloadDefs {
		a, err := newWorkload(w.Name, 7, smallScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(w.Name, 7, smallScale)
		c, _ := newWorkload(w.Name, 8, smallScale)
		if a.inputSHA256() != b.inputSHA256() {
			t.Errorf("%s: same seed, different inputs", w.Name)
		}
		if a.inputSHA256() == c.inputSHA256() {
			t.Errorf("%s: different seeds, same inputs", w.Name)
		}
	}
}

// bimodal builds n block values of which the given share are disturbed
// (1.6x, the host's slow mode), interleaved deterministically, with a
// small ripple on both modes.
func bimodal(n int, disturbed float64) []float64 {
	out := make([]float64, n)
	acc := 0.0
	for i := range out {
		ripple := 1 + 0.01*math.Sin(float64(i))
		out[i] = 100 * ripple
		if acc += disturbed; acc >= 1 {
			acc--
			out[i] = 160 * ripple
		}
	}
	return out
}

func TestQuietDecile(t *testing.T) {
	for _, share := range []float64{0, 0.5, 0.75} {
		v, noisy := quietDecile(bimodal(400, share))
		if math.Abs(v-100)/100 > 0.03 {
			t.Errorf("%.0f%% disturbed: quiet decile %.2f, want 100 within 3%%", 100*share, v)
		}
		if math.Abs(noisy-share) > 0.01 {
			t.Errorf("%.0f%% disturbed: noisy share %.3f", 100*share, noisy)
		}
	}
	if v, _ := quietDecile(nil); v != 0 {
		t.Errorf("empty series: %v", v)
	}
	// A mean would have followed the disturbance.
	var sum float64
	for _, x := range bimodal(400, 0.5) {
		sum += x
	}
	if mean := sum / 400; mean < 125 {
		t.Errorf("the synthetic series is not bimodal enough: mean %.1f", mean)
	}
}

func TestTailValue(t *testing.T) {
	var a, b []int64
	for i := int64(1); i <= 100; i++ {
		a = append(a, i)
		b = append(b, 1000+i)
	}
	// Pooled: 200 samples, the ten largest are 1091..1100, so the tail
	// value is 1090.
	if got := tailValue(topSamples(a), topSamples(b)); got != 1090 {
		t.Errorf("pooled tail %v, want 1090", got)
	}
	if got := tailValue(topSamples([]int64{5, 3})); got != 3 {
		t.Errorf("short tail %v, want 3", got)
	}
}

// TestSpanSelfTime checks the self-time arithmetic on a hand-built
// timeline:
//
//	bench      0 ........................ 100
//	  round       10 ............ 70
//	    rx           20 .. 30
//	    tx                   50 .. 65
//	  round                          80 . 90
func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{ring: make([]span, 8)}
	tr.setOp(42)
	tr.begin(layBench, 0)
	tr.begin(layCoreRound, 10)
	tr.begin(layDevRx, 20)
	tr.end(30)
	tr.begin(layDevTx, 50)
	tr.end(65)
	tr.end(70)
	tr.begin(layCoreRound, 80)
	tr.end(90)
	tr.end(100)
	want := map[layerID]int64{layBench: 100 - 60 - 10, layCoreRound: (60 - 10 - 15) + 10, layDevRx: 10, layDevTx: 15}
	for l, w := range want {
		if tr.self[l] != w {
			t.Errorf("%s self %d, want %d", layerNames[l], tr.self[l], w)
		}
	}
	if tr.selfTotal() != 100 {
		t.Errorf("self times sum to %d, want the root's 100", tr.selfTotal())
	}
	last := tr.ring[0]
	if last.Name != "bench" || last.Parent != -1 || last.Op != 42 || last.Start != 0 || last.End != 100 {
		t.Errorf("root span recorded as %+v", last)
	}
	if rx := tr.ring[2]; rx.Parent != 1 || rx.Name != "dev.rx" {
		t.Errorf("rx span recorded as %+v", rx)
	}

	// With a span cost, the same timeline bills the cost to bench.trace
	// and the total is unchanged.
	tc := &tracer{ring: make([]span, 8), costIn: 2, costOut: 3}
	tc.begin(layBench, 0)
	tc.begin(layCoreRound, 10)
	tc.begin(layDevRx, 20)
	tc.end(30)
	tc.end(70)
	tc.end(100)
	if tc.self[layDevRx] != 10-2 || tc.self[layCoreRound] != 50-2-3 || tc.self[layBench] != 40-2-3 {
		t.Errorf("costed self times %v", tc.self)
	}
	if tc.self[layTrace] != 3*2+2*3 || tc.selfTotal() != 100 {
		t.Errorf("trace layer %d, total %d", tc.self[layTrace], tc.selfTotal())
	}
}

// TestHarnessAllocatesNothing: the harness must never show up in
// allocs_per_pkt. The devices' only allocations are packet.New's own.
func TestHarnessAllocatesNothing(t *testing.T) {
	frame := probeFrame(64)
	program := testing.AllocsPerRun(1000, func() { packet.New(frame).Kill() })

	s := newSink(2, []expectation{{Dev: 1, Frame: frame}}, false)
	tr := &tracer{ring: make([]span, 64), stack: make([]openSpan, 0, 16)}
	in, out := &memDev{id: 0, sink: s, tr: tr}, &memDev{id: 1, sink: s, tr: tr}
	burst := [][]byte{frame, frame, frame, frame}
	buf := make([]*packet.Packet, 4)
	devices := testing.AllocsPerRun(1000, func() {
		in.rx = burst
		out.TxEnqueue(in.RxDequeue())
		n := in.RxDequeueBatch(buf)
		out.TxEnqueueBatch(buf[:n])
	})
	if devices != 4*program {
		t.Errorf("devices allocate %.1f per 4 frames, packet.New/Kill alone %.1f", devices, 4*program)
	}
	if s.bad != 0 {
		t.Errorf("sink rejected %d reference frames", s.bad)
	}

	if n := testing.AllocsPerRun(1000, func() {
		tr.begin(layBench, 1)
		tr.begin(layDevRx, 2)
		tr.end(3)
		tr.end(4)
	}); n != 0 {
		t.Errorf("span ring allocates %.1f per span pair", n)
	}

	// The block recorder allocates nothing: neither while a block is open,
	// with the host probe running, nor when it closes one.
	rec := newBlockRecorder(256, 64, 64)
	rec.start(0)
	if n := testing.AllocsPerRun(100, func() {
		rec.opDone(1000)
		rec.lastProbe = -probeEveryNS
		now := rec.probe(0)
		if rec.tick(now, 32) {
			t.Error("block closed early")
		}
		if !rec.tick(now+blockNS, 32) {
			t.Error("block not closed")
		}
		rec.start(0)
	}); n != 0 {
		t.Errorf("block recorder allocates %.1f per block", n)
	}
}

// TestBlockRecorderProbes: probe time is billed to the block it ran in
// and is part of no block's cost.
func TestBlockRecorderProbes(t *testing.T) {
	rec := newBlockRecorder(4, 4, 4)
	rec.start(1000)
	rec.lastProbe = 1000
	if got := rec.probe(1000 + probeEveryNS/2); got != 1000+probeEveryNS/2 || rec.probes != 0 {
		t.Fatalf("probe ran %d ns after the last one", probeEveryNS/2)
	}
	// Stand in for a probe that took 2500 ns, 2048 of them timed.
	rec.probeNS, rec.probeSpent, rec.probes = 2048, 2500, 1
	if rec.tick(1000+blockNS+2499, 10) {
		t.Fatal("block closed before blockNS of workload time")
	}
	if !rec.tick(1000+blockNS+2500, 10) {
		t.Fatal("block not closed after blockNS of workload time")
	}
	if want := float64(blockNS) / 20; rec.pkt[0] != want {
		t.Errorf("block cost %v ns per packet, want %v", rec.pkt[0], want)
	}
	if want := 2048.0 / probeIters; rec.ref[0] != want {
		t.Errorf("block probe cost %v, want %v", rec.ref[0], want)
	}
	rec.start(0)
	if rec.probeNS != 0 || rec.probeSpent != 0 || rec.probes != 0 {
		t.Error("start does not reset the block's probes")
	}
}

// TestHostQuiet: the reducer of the gated timings on synthetic runs.
// Blocks cost 100 on a quiet host; in the slow state the host probe reads
// 1.6x and the workload, a little less sensitive, 1.5x.
func TestHostQuiet(t *testing.T) {
	series := func(n int, slowShare float64) (blocks, slow []float64) {
		acc := 0.0
		for i := 0; i < n; i++ {
			ripple := 1 + 0.01*math.Sin(float64(i))
			v, s := 100*ripple, 1+0.002*math.Cos(float64(i))
			if acc += slowShare; acc >= 1 {
				acc--
				v, s = 150*ripple, 1.6
			}
			blocks, slow = append(blocks, v), append(slow, s)
		}
		return blocks, slow
	}
	// While a third of the blocks is quiet, those are selected and nothing
	// is rescaled; with a quarter, the quiet ones still decide.
	for _, share := range []float64{0, 0.5, 0.75} {
		blocks, slow := series(400, share)
		if v := hostQuiet(blocks, slow, 1); math.Abs(v-100) > 1.5 {
			t.Errorf("%.0f%% slow: %v, want 100 within 1.5%%", 100*share, v)
		}
	}
	// With none, the probe's reading corrects what it can: 150/1.6.
	blocks, slow := series(400, 1)
	if v := hostQuiet(blocks, slow, 1); math.Abs(v-93.75) > 1.5 {
		t.Errorf("all slow: %v, want 150/1.6 within 1.5%%", v)
	}
	if v := hostQuiet(blocks, slow, 0.5); math.Abs(v-150/1.3) > 1.5 {
		t.Errorf("all slow at half sensitivity: %v, want 150/1.3 within 1.5%%", v)
	}
	// Blocks without a probe are left out; nothing left gives 0.
	if v := hostQuiet([]float64{50, 100, 100}, []float64{0, 1, 1}, 1); v != 100 {
		t.Errorf("unprobed block used: %v", v)
	}
	if v := hostQuiet([]float64{50}, []float64{0}, 1); v != 0 {
		t.Errorf("no probed block: %v", v)
	}
	if s := hostSlowdown([]float64{probeNominalNS, 0, 2 * probeNominalNS}); s[0] != 1 || s[1] != 0 || s[2] != 2 {
		t.Errorf("hostSlowdown %v", s)
	}
}

// TestForwardReference pins the hand-written oracle itself: the
// reference output has a valid header checksum and a TTL one lower.
func TestForwardReference(t *testing.T) {
	in := probeFrame(64)
	out := forwardReference(in, [6]byte{1}, [6]byte{2})
	if ipChecksum(out[etherLen:etherLen+ipMinLen]) != 0 {
		t.Error("reference output has a bad IP checksum")
	}
	if out[etherLen+8] != in[etherLen+8]-1 || out[0] != 2 || out[6] != 1 {
		t.Errorf("reference output % x", out[:etherLen+ipMinLen])
	}
	if classifyFrame(out) != outForwarded || frameTag(out) != 0 {
		t.Error("reference output misclassified")
	}
}
