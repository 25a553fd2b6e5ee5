package main

import (
	"slices"
	"sort"
)

// The host this benchmark must repeat on is a two-vCPU VM whose cores
// are shared with other tenants. It has a slow state: code that keeps
// the core's execution units busy (the routers here, an allocation loop,
// independent ALU chains) runs 1.4-1.7x slower, while a dependent load
// chain or a bulk memory clear barely moves, which is what a busy
// sibling hyperthread looks like. The state flips within milliseconds
// and comes in episodes of seconds to minutes, so a run can fall wholly
// into one and have no quiet decile to find (README.md, "Measurement
// rules", has the numbers).
//
// So the timed loop is interleaved with a probe: a fixed ALU kernel that
// touches no memory and allocates nothing, run for about a twentieth of
// the time. Each block knows from its own probes how slow the host was
// while it ran. A gated timing is taken from the third of the blocks in
// which the host was quietest, and each of those is corrected for what
// slowdown its probes still saw: nothing when the host had a quiet spell
// in the run, which is the usual case, and an approximate correction
// when it had none. Bring-ups are probed between one and the next.

const (
	// probeIters is the probe's timed length: ~1.4 us, long enough for
	// the clock read that ends it not to matter.
	probeIters = 1024
	// probeEveryNS is the workload time between two probes.
	probeEveryNS = 40_000
	// probeWarmIters run before the timed ones. A probe timed from the
	// moment the workload's step returns reads 1.55-1.62 ns per iteration
	// after a fwd-base burst, 1.47 after a ctl-churn cycle and 1.425 back
	// to back, and a rebuild moved the first by 6 %; after the warm-up all
	// of them read 1.435-1.445, in four differently laid-out builds.
	probeWarmIters = 256
	// probeNominalNS is the timed iterations' cost each, clock read
	// included, on the quiet reference host (2-vCPU Xeon 2.1 GHz, go1.24).
	// It only scales the output of a run that saw no quiet spell:
	// comparisons between commits do not depend on it.
	probeNominalNS = 1.44
	// quietShare is the share of blocks a gated timing is taken from, and
	// quietQuantile the quantile of those it reports. What the probe
	// cannot see (a collection cycle of ctl-churn's growing heap, which
	// half of its blocks contain; page faults; a neighbour's memory
	// traffic) only adds time, so it is the lower quartile, not the
	// median.
	quietShare    = 1.0 / 3
	quietQuantile = 0.25
	// How much of the probe's slowdown the measured code shares, for the
	// correction of blocks that were not quiet. In the slow state the
	// probe reads 1.55-1.7x and the forwarding paths and control
	// operations slow by 1.4-1.6x, so they are corrected in full. A
	// bring-up, bound by memory more than by the execution units, slows by
	// 1.15-1.2x when the probe reads 1.57x and by 1.5-1.7x when it reads
	// 1.9-2x: half.
	pathSensitivity  = 1.0
	setupSensitivity = 0.5
	// setupProbes is the number of probes after each bring-up.
	setupProbes = 16
)

var probeSink uint64

// hostKernel is the reference kernel: n iterations of four independent
// multiply-add chains held in registers. It belongs to the harness, not
// to the program: nothing in it is code under test.
func hostKernel(n int) {
	a, b, c, d := probeSink|1, uint64(3), uint64(5), uint64(7)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*2862933555777941757 + 3037000493
		c = c*3202034522624059733 + 4354685564936845319
		d = d*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	}
	probeSink = a ^ b ^ c ^ d
}

// hostProbe runs the kernel once, warm-up first, and returns the time of
// the timed iterations and the time afterwards.
func hostProbe() (timed, end int64) {
	hostKernel(probeWarmIters)
	start := nanotime()
	hostKernel(probeIters)
	end = nanotime()
	return end - start, end
}

// hostSlowdown turns per-block probe costs (ns per iteration, 0 for a
// block without a probe) into the host's slowdown during each block.
func hostSlowdown(probeNS []float64) []float64 {
	out := make([]float64, len(probeNS))
	for i, v := range probeNS {
		out[i] = v / probeNominalNS
	}
	return out
}

// timedProbes runs n probes and returns their timed total in ns.
func timedProbes(n int) int64 {
	var total int64
	for i := 0; i < n; i++ {
		timed, _ := hostProbe()
		total += timed
	}
	return total
}

// hostQuiet reduces block values to their cost on a quiet host: the
// quietQuantile, over the quietShare of blocks with the lowest slowdown,
// of value / (1 + sens*(slowdown-1)). blocks and slow run in parallel;
// blocks without a slowdown are left out.
func hostQuiet(blocks, slow []float64, sens float64) float64 {
	idx := make([]int, 0, len(blocks))
	for i := range blocks {
		if i < len(slow) && slow[i] > 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	sort.SliceStable(idx, func(a, b int) bool { return slow[idx[a]] < slow[idx[b]] })
	n := max(1, int(quietShare*float64(len(idx))))
	vals := make([]float64, n)
	for k, i := range idx[:n] {
		vals[k] = blocks[i] / (1 + sens*(slow[i]-1))
	}
	slices.Sort(vals)
	return quantile(vals, quietQuantile)
}

// medianOfFloats returns the median of xs, sorting it in place.
func medianOfFloats(xs []float64) float64 {
	slices.Sort(xs)
	return quantile(xs, 0.5)
}
