package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/opt"
	"repro/internal/packet"
)

// The flowcache experiment measures the flow fast path under the
// traffic it is built for: Zipf-distributed flows (a few elephants, a
// long tail of mice) through the 8-interface IP router. Each packet's
// flow is drawn from Zipf(1.1); the first packet of a flow takes the
// full modular pipeline while the cache records and replay-verifies its
// net effect, and every later packet of a verified flow skips the
// pipeline. Cost is deterministic model cycles per forwarded packet —
// the FlowCache element itself charges zero cycles, so the cached
// router's cost is exactly the slow-path work that still happens.
// Forwarded-packet equality between the variants is asserted, not
// assumed: the fast path must be invisible in the output.

// FlowCachePoint is one variant's measurement.
type FlowCachePoint struct {
	Variant         string  `json:"variant"`
	Packets         int64   `json:"packets"`
	Cycles          int64   `json:"cycles"`
	CyclesPerPacket float64 `json:"cycles_per_packet"`
	Hits            int64   `json:"hits,omitempty"`
	Misses          int64   `json:"misses,omitempty"`
	Uncacheable     int64   `json:"uncacheable,omitempty"`
	Entries         int64   `json:"entries,omitempty"`
	HitRate         float64 `json:"hit_rate,omitempty"`
}

// FlowCacheResults is the document click-bench -json writes for the
// flowcache experiment.
type FlowCacheResults struct {
	Flows       int              `json:"flows"`
	TracePkts   int              `json:"trace_packets"`
	ZipfS       float64          `json:"zipf_s"`
	Points      []FlowCachePoint `json:"points"`
	Improvement float64          `json:"improvement"` // base c/p over cached c/p
}

// FlowCacheFlows and FlowCachePackets size the Zipf sweep; variables so
// the smoke test can shrink them.
var (
	FlowCacheFlows   = 256
	FlowCachePackets = 20000
)

// flowCacheZipfTrace draws each packet's flow from Zipf(1.1) over the
// flow pool. A flow is a fixed 5-tuple with a fixed payload size,
// spread across the non-ingress interfaces.
func flowCacheZipfTrace(r *rand.Rand, ifs []iprouter.Interface, flows, n int) []*packet.Packet {
	z := rand.NewZipf(r, 1.1, 1, uint64(flows-1))
	ps := make([]*packet.Packet, n)
	for i := range ps {
		f := int(z.Uint64())
		dst := ifs[1+f%(len(ifs)-1)]
		ps[i] = packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
			ifs[0].HostAddr, dst.HostAddr,
			uint16(2000+f/256), uint16(10000+f%256), make([]byte, 14+f%24))
	}
	return ps
}

// runFlowCachePoint builds one variant, replays the trace, and measures
// model cycles per forwarded packet plus the cache counters when a
// FlowCache is installed.
func runFlowCachePoint(text, variant string,
	apply func(g *graph.Router, reg *core.Registry) error,
	ifs []iprouter.Interface, trace []*packet.Packet) (FlowCachePoint, error) {
	pt := FlowCachePoint{Variant: variant}
	rt, devs, err := buildOnMemDevices(text, "flowcachebench", apply, ifs, modelOptions(nil))
	if err != nil {
		return pt, err
	}
	c0 := core.Totals(rt.StatsReport()).Cycles
	for _, p := range trace {
		devs[0].rx = append(devs[0].rx, p.Clone())
	}
	rt.RunUntilIdle(len(trace) + 1000)
	var sent int64
	for _, d := range devs {
		sent += d.sent
	}
	if sent == 0 {
		return pt, fmt.Errorf("flowcache: %s forwarded nothing", variant)
	}
	pt.Packets = sent
	pt.Cycles = core.Totals(rt.StatsReport()).Cycles - c0
	pt.CyclesPerPacket = float64(pt.Cycles) / float64(sent)
	for _, e := range rt.Elements() {
		if fc, ok := e.(*elements.FlowCache); ok {
			pt.Hits = fc.Hits
			pt.Misses = fc.Misses
			pt.Uncacheable = fc.Uncacheable
			pt.Entries = int64(fc.Entries())
			if total := pt.Hits + pt.Misses; total > 0 {
				pt.HitRate = float64(pt.Hits) / float64(total)
			}
		}
	}
	return pt, nil
}

// FlowCacheBench runs the Zipf flow sweep uncached, cached, and cached
// on top of the full §8.2 optimizer chain, and checks the claims the
// experiment exists to prove: identical forwarding, a >= 90% hit rate,
// and at least a 2x cycles-per-packet improvement over the uncached
// pipeline.
func FlowCacheBench(w io.Writer) error {
	ifs := iprouter.Interfaces(EvalInterfaces)
	text := iprouter.Config(ifs)
	r := rand.New(rand.NewSource(42))
	trace := flowCacheZipfTrace(r, ifs, FlowCacheFlows, FlowCachePackets)

	results := FlowCacheResults{Flows: FlowCacheFlows, TracePkts: FlowCachePackets, ZipfS: 1.1}
	fmt.Fprintf(w, "Flow fast path under Zipf(1.1) traffic (%d flows, %d packets, %d-interface IP router)\n",
		FlowCacheFlows, FlowCachePackets, EvalInterfaces)
	fmt.Fprintf(w, "%-16s %10s %14s %10s %10s\n", "variant", "packets", "cycles/pkt", "hit rate", "entries")

	variants := []struct {
		name  string
		apply func(g *graph.Router, reg *core.Registry) error
	}{
		{"base", nil},
		{"flowcache", opt.InstallFlowCache},
		{"all+flowcache", func(g *graph.Router, reg *core.Registry) error {
			if err := fusionAllPasses(g, reg); err != nil {
				return err
			}
			return opt.InstallFlowCache(g, reg)
		}},
	}
	pts := map[string]FlowCachePoint{}
	for _, v := range variants {
		pt, err := runFlowCachePoint(text, v.name, v.apply, ifs, trace)
		if err != nil {
			return err
		}
		pts[v.name] = pt
		results.Points = append(results.Points, pt)
		fmt.Fprintf(w, "%-16s %10d %14.1f %9.1f%% %10d\n",
			pt.Variant, pt.Packets, pt.CyclesPerPacket, pt.HitRate*100, pt.Entries)
	}

	// Forwarding equality: the cache must be invisible in the output.
	for _, v := range variants[1:] {
		if pts[v.name].Packets != pts["base"].Packets {
			return fmt.Errorf("flowcache: %s forwarded %d packets, base %d",
				v.name, pts[v.name].Packets, pts["base"].Packets)
		}
	}
	cached := pts["flowcache"]
	if cached.HitRate < 0.90 {
		return fmt.Errorf("flowcache: hit rate %.3f below 0.90 under Zipf(1.1)", cached.HitRate)
	}
	results.Improvement = pts["base"].CyclesPerPacket / cached.CyclesPerPacket
	if results.Improvement < 2.0 {
		return fmt.Errorf("flowcache: %.2fx cycles/packet improvement, want >= 2x",
			results.Improvement)
	}
	fmt.Fprintf(w, "improvement: %.1fx cycles/packet over the uncached pipeline\n", results.Improvement)

	if JSONPath != "" {
		blob, err := json.MarshalIndent(&results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(JSONPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", JSONPath)
	}
	return nil
}
