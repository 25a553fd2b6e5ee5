package main

import (
	"slices"
	"sort"
	"time"
)

// The host this benchmark has to repeat on has a slow state (hostref.go).
// Means and medians over a run follow the share of the run it covered;
// the low decile of >= 10 ms blocks does not while at least a tenth of
// the blocks escaped it, because interference only ever adds time. Every
// timed number is therefore cut into blocks and each block reduced; the
// gated in-memory timings then take the blocks the host probe found
// quietest (hostQuiet), everything else the p10 of the blocks
// (quietDecile).

const (
	// blockNS is the minimum length of a timed block.
	blockNS = int64(10 * time.Millisecond)
	// noisyFactor classifies a block as disturbed when it reads more
	// than this multiple of the reported quiet-decile value.
	noisyFactor = 1.25
	// tailBeyond is the number of samples that must lie beyond the
	// reported tail percentile.
	tailBeyond = 10
)

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quietDecile reduces block values to the undisturbed cost: the p10 of
// the blocks, and the share of blocks that read more than noisyFactor
// times that value. blocks is sorted in place.
func quietDecile(blocks []float64) (value, noisyShare float64) {
	if len(blocks) == 0 {
		return 0, 0
	}
	slices.Sort(blocks)
	value = quantile(blocks, 0.10)
	limit := value * noisyFactor
	first := sort.SearchFloat64s(blocks, limit)
	for first < len(blocks) && blocks[first] <= limit {
		first++
	}
	return value, float64(len(blocks)-first) / float64(len(blocks))
}

// medianInt64 returns the median of xs, sorting it in place.
func medianInt64(xs []int64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return float64(xs[n/2])
	}
	return float64(xs[n/2-1]+xs[n/2]) / 2
}

// topSamples returns the tailBeyond+1 largest values of xs in descending
// order (fewer if xs is shorter). Pooling the per-round lists and taking
// element tailBeyond of the merged list gives the exact pooled tail.
func topSamples(xs []int64) []int64 {
	top := append([]int64(nil), xs...)
	sort.Slice(top, func(i, j int) bool { return top[i] > top[j] })
	if len(top) > tailBeyond+1 {
		top = top[:tailBeyond+1]
	}
	return top
}

// tailValue is the highest percentile with at least tailBeyond samples
// beyond it, given the pooled descending top lists: the sample that has
// exactly tailBeyond larger ones. With too few samples it is the
// smallest one known.
func tailValue(tops ...[]int64) float64 {
	var all []int64
	for _, t := range tops {
		all = append(all, t...)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	if len(all) > tailBeyond {
		return float64(all[tailBeyond])
	}
	return float64(all[len(all)-1])
}

// blockRecorder cuts a timed section into blocks of at least blockNS and
// keeps, per block, the mean cost per packet, the median operation
// latency and the mean cost of the host probes that ran during it. All
// storage is preallocated: nothing here allocates.
type blockRecorder struct {
	pkt []float64 // ns per packet, one per block
	op  []float64 // median op latency in ns, one per block
	ref []float64 // host probe ns per iteration, one per block; 0 without a probe
	raw []int64   // every op latency in ns, until full

	blockStart int64
	blockPkts  int64
	ops        []int64 // op latencies of the open block

	lastProbe  int64 // when the latest probe ended
	probeNS    int64 // the probes' timed part within the open block
	probes     int64 // probes within the open block
	probeSpent int64 // all probe time, warm-up included, within the open block
	probeTotal int64 // the same since the recorder was made
}

func newBlockRecorder(maxBlocks, maxOpsPerBlock, maxRaw int) *blockRecorder {
	return &blockRecorder{
		pkt: make([]float64, 0, maxBlocks),
		op:  make([]float64, 0, maxBlocks),
		ref: make([]float64, 0, maxBlocks),
		raw: make([]int64, 0, maxRaw),
		ops: make([]int64, 0, maxOpsPerBlock),
	}
}

// start opens a block at time now (ns).
func (b *blockRecorder) start(now int64) {
	b.blockStart, b.blockPkts, b.ops = now, 0, b.ops[:0]
	b.probeNS, b.probeSpent, b.probes = 0, 0, 0
}

// reset forgets everything recorded, keeping the storage.
func (b *blockRecorder) reset() {
	b.pkt, b.op, b.ref, b.raw, b.ops = b.pkt[:0], b.op[:0], b.ref[:0], b.raw[:0], b.ops[:0]
}

// opDone records one finished operation's latency.
func (b *blockRecorder) opDone(ns int64) {
	if len(b.ops) < cap(b.ops) {
		b.ops = append(b.ops, ns)
	}
	if len(b.raw) < cap(b.raw) {
		b.raw = append(b.raw, ns)
	}
}

// probe is called between two steps, at time now. When probeEveryNS have
// passed since the last one it runs the host probe and bills it to the
// open block. It returns the time afterwards, which is where the next
// step starts: probe time is part of no operation and of no block's cost.
func (b *blockRecorder) probe(now int64) int64 {
	if now-b.lastProbe < probeEveryNS {
		return now
	}
	timed, end := hostProbe()
	b.probeNS += timed
	b.probeSpent += end - now
	b.probeTotal += end - now
	b.probes++
	b.lastProbe = end
	return end
}

// tick adds pkts delivered packets at time now and, when the block has
// seen blockNS of workload time, closes it. It reports whether it did, so
// the caller can read the clock again before opening the next block: the
// sort of the block's op latencies is not billed to the next one.
func (b *blockRecorder) tick(now, pkts int64) bool {
	b.blockPkts += pkts
	dur := now - b.blockStart - b.probeSpent
	if dur < blockNS {
		return false
	}
	if b.blockPkts > 0 && len(b.pkt) < cap(b.pkt) {
		b.pkt = append(b.pkt, float64(dur)/float64(b.blockPkts))
		b.op = append(b.op, medianInt64(b.ops))
		ref := 0.0
		if b.probes > 0 {
			ref = float64(b.probeNS) / float64(b.probes*probeIters)
		}
		b.ref = append(b.ref, ref)
	}
	return true
}
