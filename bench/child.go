package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// childResult is what one child process (one workload, one round)
// reports to the runner on standard output.
type childResult struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Gomaxprocs int    `json:"gomaxprocs"`
	InputSHA   string `json:"input_sha256"`

	Verdict verdict `json:"verdict"`

	// Untimed-by-trace end-to-end raw material.
	PktBlocks   []float64 `json:"pkt_blocks_ns"`   // ns per packet, per block
	OpBlocks    []float64 `json:"op_blocks_ns"`    // median op latency, per block
	RefBlocks   []float64 `json:"ref_blocks_ns"`   // host probe ns per iteration, per block
	SetupBlocks []float64 `json:"setup_blocks_ns"` // mean bring-up, per block of setupBlockRuns
	SetupRef    []float64 `json:"setup_ref_ns"`    // host probe ns per iteration, per setup block
	OpTop       []int64   `json:"op_top_ns"`       // largest raw op latencies
	Frames      int64     `json:"frames"`
	Mallocs     uint64    `json:"mallocs"`
	RSSMB       float64   `json:"rss_mb"`
	GCCycles    uint32    `json:"gc_cycles"`
	GCPauseNS   uint64    `json:"gc_pause_ns"`

	// Exact holds the counts that depend only on the seed.
	Exact map[string]float64 `json:"exact"`
	// Layers holds every per-layer metric; traced children only.
	Layers map[string]float64 `json:"layers,omitempty"`
}

const (
	setupBlockRuns = 5
	warmupNS       = int64(200 * time.Millisecond)
	traceRingSpans = 1 << 16
)

// timedSection runs inst's closed loop for d, with the host probe
// between steps, and returns the frames delivered and the wall time the
// loop itself took: the probes, and the time between blocks where the
// recorder reduces a block, are left out.
func timedSection(inst instance, rec *blockRecorder, d time.Duration) (frames, wall int64) {
	start := nanotime()
	end := start + int64(d)
	rec.start(start)
	probed := rec.probeTotal
	var between int64
	for now := start; now < end; {
		pkts, t := inst.step(rec, now)
		frames += pkts
		t = rec.probe(t)
		if rec.tick(t, pkts) {
			reopened := nanotime()
			between += reopened - t
			t = reopened
			rec.start(t)
		}
		now = t
	}
	return frames, nanotime() - start - between - (rec.probeTotal - probed)
}

func newRecorder(d time.Duration) *blockRecorder {
	return newBlockRecorder(int(int64(d)/blockNS)+16, 1<<14, 1<<20)
}

// warmUp fills caches, pools and tables: one pass over the inputs, a
// second, counted one for the exact metrics, then more steps until
// warmupNS has passed.
//
// rssMB is the resident set right after the two passes, with garbage
// collected and free memory returned: what the router, its tables and the
// inputs occupy after a fixed amount of work. Neither the peak (which
// follows the collector's timing) nor the end of the run (ctl-churn's
// plane keeps every ruleset it has ever parsed, so memory then is
// proportional to speed) repeats.
func warmUp(inst instance) (d statsDelta, rssMB float64) {
	scratch := newBlockRecorder(1, 1, 1)
	start := nanotime()
	countedPass(inst, scratch)
	d = countedPass(inst, scratch)
	debug.FreeOSMemory()
	rssMB = vmRSS()
	for now := nanotime(); now-start < warmupNS; {
		_, now = inst.step(scratch, now)
		scratch.reset()
	}
	return d, rssMB
}

// vmRSS is the process's resident set in MB.
func vmRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// measureSetup fills in setup_s's raw material: cold bring-ups in the
// warmed process, never a single shot, in blocks of setupBlockRuns, with
// the host probed after each one. pt collects the bring-ups' stage
// timings.
func (res *childResult) measureSetup(w workload, pt *passTimes, runs int) error {
	inst, err := w.bringUp(nil, nil)
	if err != nil {
		return err
	}
	inst.close()
	var sum float64
	var probeNS int64
	for r := 1; r <= runs; r++ {
		t0 := nanotime()
		inst, err := w.bringUp(nil, pt)
		sum += float64(nanotime() - t0)
		if err != nil {
			return err
		}
		inst.close()
		probeNS += timedProbes(setupProbes)
		if r%setupBlockRuns == 0 || r == runs {
			n := (r-1)%setupBlockRuns + 1
			res.SetupBlocks = append(res.SetupBlocks, sum/float64(n))
			res.SetupRef = append(res.SetupRef, float64(probeNS)/float64(n*setupProbes*probeIters))
			sum, probeNS = 0, 0
		}
	}
	return nil
}

// measureEndToEnd warms inst up, runs its closed loop untraced for d and
// fills in every end-to-end field of res. It returns the mean ns per
// packet over the section and the control operations performed in it.
func (res *childResult) measureEndToEnd(def workloadDef, inst instance, d time.Duration) (nsPerPkt float64, ops int64) {
	delta, rss := warmUp(inst)
	res.RSSMB = rss
	if delta.frames > 0 {
		res.Exact["elements.hops_per_pkt"] = delta.hops / delta.frames
		res.Exact["elements.drops_share"] = delta.drops / (delta.frames + delta.drops)
		// An empty Queue charges model cycles for the check, so where the
		// number of idle rounds depends on timing the cycles do too, and
		// are reported as a layer metric only.
		if def.IdleRounds {
			res.Layers["elements.model_cycles_per_pkt"] = delta.cycles / delta.frames
		} else {
			res.Exact["elements.model_cycles_per_pkt"] = delta.cycles / delta.frames
		}
	}
	rec := newRecorder(d)
	opsBefore := controlOps(inst)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	frames, wall := timedSection(inst, rec, d)
	runtime.ReadMemStats(&after)
	res.PktBlocks, res.OpBlocks, res.RefBlocks, res.OpTop = rec.pkt, rec.op, rec.ref, topSamples(rec.raw)
	res.Frames, res.Mallocs = frames, after.Mallocs-before.Mallocs
	res.GCCycles, res.GCPauseNS = after.NumGC-before.NumGC, after.PauseTotalNs-before.PauseTotalNs
	res.Verdict = inst.verify()
	return float64(wall) / float64(frames), controlOps(inst) - opsBefore
}

// measureTraced is the traced run: the same workload on a second
// instance with span recording on for d. It fills res.Layers with what
// the spans and the workload's own counters give, and writes the trace
// file. End-to-end numbers never come from here.
func (res *childResult) measureTraced(w workload, d time.Duration, untracedNS float64, outDir string) error {
	m := res.Layers
	tr := newTracer(traceRingSpans)
	inst, err := w.bringUp(tr, nil)
	if err != nil {
		return err
	}
	defer inst.close()
	warmUp(inst)
	tr.reset()
	frames, wall := timedSection(inst, newRecorder(d), d)
	self, covered := tr.self, tr.selfTotal()
	inst.native(m)
	v := inst.verify()
	res.Verdict.Attempted += v.Attempted
	res.Verdict.Failed += v.Failed
	res.Verdict.Notes = append(res.Verdict.Notes, v.Notes...)
	if frames > 0 {
		per := func(l layerID) float64 { return float64(self[l]) / float64(frames) }
		m["bench.trace_overhead_share"] = float64(wall)/float64(frames)/untracedNS - 1
		// Everything under a root span is billed to some layer, so the
		// sum over all of them is the roots' coverage of the section by
		// construction. What can fail is the part billed to named layers:
		// time the harness spends outside any call into one stays in the
		// catch-all bench layer and is missing here.
		m["bench.layer_sum_share"] = float64(covered-self[layBench]) / float64(wall)
		// A layer the workload never called into has no self time to
		// report.
		for l, name := range map[layerID]string{
			layCoreRound: "core.round_self_ns_per_pkt",
			layGenSend:   "io.inject_ns_per_pkt",
			layBackendRx: "io.recv_ns_per_pkt",
			layAdapterRx: "io.adapter_rx_ns_per_pkt",
			layBackendTx: "io.send_ns_per_pkt",
			layAdapterTx: "io.adapter_tx_ns_per_pkt",
		} {
			if tr.count[l] > 0 {
				m[name] = per(l)
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(outDir, "trace-"+res.Workload+".json"), res.Workload, res.Seed)
}

// runChild measures one workload for one round in this process: setup,
// then the untraced closed loop, then (traced children only, which give
// the loop a fifth of d) the traced loop for three tenths of d, idle
// rounds for a twentieth and the workload's layer probes for the rest.
// root is the checkout, for testdata; outDir is where the trace file
// goes.
func runChild(name string, seed int64, d time.Duration, traced bool, sc scale, root, outDir string) (*childResult, error) {
	def, _ := workloadByName(name)
	res := &childResult{
		Workload: name, Seed: seed, Gomaxprocs: runtime.GOMAXPROCS(0),
		Exact: map[string]float64{}, Layers: map[string]float64{},
	}
	w, err := newWorkload(name, seed, sc)
	if err != nil {
		return nil, err
	}
	res.InputSHA = w.inputSHA256()
	pt := newPassTimes()
	if err := res.measureSetup(w, pt, sc.SetupRuns); err != nil {
		return nil, err
	}
	if err := res.seedCounts(w, pt); err != nil {
		return nil, err
	}
	inst, err := w.bringUp(nil, nil)
	if err != nil {
		return nil, err
	}
	if !traced {
		res.measureEndToEnd(def, inst, d)
		inst.close()
		return res, nil
	}

	m := res.Layers
	untracedNS, ops := res.measureEndToEnd(def, inst, d/5)
	if ops > 0 {
		m["mgmt.allocs_per_op"] = float64(res.Mallocs) / float64(ops)
	}
	m["core.idle_round_ns"] = idleRoundNS(d/20, inst.router())
	inst.close()
	if err := res.measureTraced(w, d*3/10, untracedNS, outDir); err != nil {
		return nil, err
	}
	// Pass timings and counts come from the setup bring-ups.
	for stage := range pt.ns {
		m[stage+"_us"] = pt.quietUS(stage)
	}
	for k, v := range pt.counts {
		m[k] = v
	}
	if err := runProbes(m, probesFor(name, w, root), d*9/20); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if floor, ok := m["elements.simple_ns_per_pkt"]; ok {
		m["elements.fwd_path_ns_per_pkt"] = untracedNS - floor
	}
	return res, nil
}

// seedCounts fills in the counts of the classifier layer that depend
// only on the seed, in every child, so that they are compared across
// rounds and across the sets of an -aa run like the element counts:
// the size of the fused decision diagrams (fwd-mixed: its own, from the
// bring-ups' fuse report; ctl-churn: one tenant template's) and the
// decision steps per datagram of the §4 ruleset over fwd-mixed's trace.
func (res *childResult) seedCounts(w workload, pt *passTimes) error {
	switch w := w.(type) {
	case *fwdWorkload:
		if w.name != "fwd-mixed" {
			return nil
		}
		res.Exact["classifier.fdd_nodes"] = pt.counts["classifier.fdd_nodes"]
		steps, err := w.matchSteps()
		res.Exact["classifier.match_steps"] = steps
		return err
	case *ctlWorkload:
		g, _, err := fusedTemplate()
		if err != nil {
			return err
		}
		nodes, _ := fusedDiagramNodes(g)
		res.Exact["classifier.fdd_nodes"] = float64(nodes)
	}
	return nil
}

// controlOps is the number of control operations an instance has
// performed; only ctl-churn performs any.
func controlOps(inst instance) int64 {
	if c, ok := inst.(interface{ controlOps() int64 }); ok {
		return c.controlOps()
	}
	return 0
}
