package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// rounds is the number of fresh child processes each workload's
// end-to-end numbers are pooled over.
const rounds = 3

// runner spawns the children. Each round of each workload runs in its
// own process, so that a run sees several heap layouts and address-space
// draws, VmHWM belongs to one workload, and GOMAXPROCS can differ per
// workload; the runner itself only waits.
type runner struct {
	exe     string
	seed    int64
	seconds float64 // timed seconds per workload: split over the rounds, or one traced child
	log     io.Writer
}

// child runs one child process to completion and decodes its result.
func (r *runner) child(w workloadDef, seconds float64, traced bool) (*childResult, error) {
	args := []string{
		"-child", "-workload", w.Name, "-seed", strconv.FormatInt(r.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*4+90)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.Procs))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.Name, err)
	}
	res := &childResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s child: bad result: %w", w.Name, err)
	}
	return res, nil
}

// result is one workload's pooled numbers.
type result struct {
	Workload string
	Verdict  verdict
	Metrics  map[string]float64
	// Exact holds the counts that depend only on the seed. They are
	// asserted equal across the rounds of a run, and across the two sets
	// of an -aa run.
	Exact    map[string]float64
	InputSHA string
	Blocks   int
	Procs    int
}

// pool reduces the rounds' children to the workload's end-to-end
// metrics, plus the diagnostics that come for free with them.
func pool(w workloadDef, kids []*childResult) *result {
	res := &result{Workload: w.Name, Metrics: map[string]float64{}, Exact: kids[0].Exact, Procs: kids[0].Gomaxprocs, InputSHA: kids[0].InputSHA}
	var pkt, op, setup, slow, setupSlow, rss []float64
	var tops [][]int64
	var frames int64
	var mallocs uint64
	var gcCycles, gcPause float64
	for _, k := range kids {
		pkt = append(pkt, k.PktBlocks...)
		op = append(op, k.OpBlocks...)
		slow = append(slow, hostSlowdown(k.RefBlocks)...)
		setup = append(setup, k.SetupBlocks...)
		setupSlow = append(setupSlow, hostSlowdown(k.SetupRef)...)
		tops = append(tops, k.OpTop)
		frames += k.Frames
		mallocs += k.Mallocs
		gcCycles += float64(k.GCCycles)
		gcPause += float64(k.GCPauseNS) / 1e6
		res.Verdict.Attempted += k.Verdict.Attempted
		res.Verdict.Failed += k.Verdict.Failed
		res.Verdict.Notes = append(res.Verdict.Notes, k.Verdict.Notes...)
		rss = append(rss, k.RSSMB)
		// Counts that depend only on the seed must not depend on the
		// round.
		if k.InputSHA != res.InputSHA {
			res.Verdict.fail(1, "round inputs differ: %s vs %s", k.InputSHA, res.InputSHA)
		}
		for name, v := range k.Exact {
			if first, ok := kids[0].Exact[name]; !ok || first != v {
				res.Verdict.fail(1, "%s differs between rounds: %v vs %v", name, first, v)
			}
		}
	}
	res.Blocks = len(pkt)
	if w.InKernel {
		quiet := func(xs []float64) float64 { v, _ := quietDecile(slices.Clone(xs)); return v }
		res.Metrics["ns_per_pkt"] = quiet(pkt)
		res.Metrics["op_p50_us"] = quiet(op) / 1e3
		res.Metrics["setup_s"] = quiet(setup) / 1e9
	} else {
		res.Metrics["ns_per_pkt"] = hostQuiet(pkt, slow, pathSensitivity)
		res.Metrics["op_p50_us"] = hostQuiet(op, slow, pathSensitivity) / 1e3
		res.Metrics["setup_s"] = hostQuiet(setup, setupSlow, setupSensitivity) / 1e9
	}
	// The median round, not the largest: one round in ten comes out 20 %
	// high on sock-udp, whose pump goroutines hold 64 KB buffers.
	res.Metrics["rss_mb"] = medianOfFloats(rss)
	raw, noisy := quietDecile(pkt)
	res.Metrics["bench.raw_ns_per_pkt"] = raw
	res.Metrics["bench.host_slowdown"] = medianOfFloats(slow)
	if frames > 0 {
		res.Metrics["allocs_per_pkt"] = float64(mallocs) / float64(frames)
	}
	res.Metrics["bench.noisy_block_share"] = noisy
	res.Metrics["bench.op_tail_us"] = tailValue(tops...) / 1e3
	res.Metrics["bench.gc_cycles"] = gcCycles
	res.Metrics["bench.gc_pause_ms"] = gcPause
	for name, v := range res.Exact {
		res.Metrics[name] = v
	}
	return res
}

// endToEnd runs the workload's rounds and pools them.
func (r *runner) endToEnd(w workloadDef) (*result, error) {
	var kids []*childResult
	for i := 0; i < rounds; i++ {
		k, err := r.child(w, r.seconds/rounds, false)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return pool(w, kids), nil
}

// traced runs the workload's traced child. Its metrics are the
// per-layer ones the workload produces and no others: what the child's
// spans, counters and probes gave, plus the diagnostics that need blocks
// (noisy share, tail, GC) from the child's own short untraced section.
func (r *runner) traced(w workloadDef) (*result, error) {
	k, err := r.child(w, r.seconds, true)
	if err != nil {
		return nil, err
	}
	res := pool(w, []*childResult{k})
	layers := map[string]float64{}
	for _, d := range perLayerDefs {
		v, ok := k.Layers[d.Name]
		if pooled, has := res.Metrics[d.Name]; has {
			v, ok = pooled, true
		}
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			layers[d.Name] = v
		}
	}
	res.Metrics = layers
	return res, nil
}

// allWorkloads runs every workload's rounds interleaved, round by round,
// so that a multi-second slow episode of the host is spread over the
// workloads instead of sinking one.
func (r *runner) allWorkloads() ([]*result, error) {
	kids := make([][]*childResult, len(workloadDefs))
	for i := 0; i < rounds; i++ {
		for wi, w := range workloadDefs {
			fmt.Fprintf(r.log, "round %d/%d %s\n", i+1, rounds, w.Name)
			k, err := r.child(w, r.seconds/rounds, false)
			if err != nil {
				return nil, err
			}
			kids[wi] = append(kids[wi], k)
		}
	}
	var out []*result
	for wi, w := range workloadDefs {
		out = append(out, pool(w, kids[wi]))
	}
	return out, nil
}
