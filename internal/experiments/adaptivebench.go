package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/packet"
)

// The adaptive benchmark exercises the telemetry-driven re-optimization
// loop end to end: an UNOPTIMIZED IP router starts forwarding, the
// workload shifts from a trickle to sustained traffic, the adaptive
// controller (opt.Adaptive) notices hot classifiers in the live
// telemetry, re-runs the optimizer passes over the unparsed running
// configuration, and the result is hot-swapped in without dropping a
// packet. Cost is measured in model cycles per packet (the deterministic
// per-element cost-model charges, not wall clock), so the before/after
// comparison is exact and machine-checkable.

// AdaptivePoint is one measured phase of the shifting workload.
type AdaptivePoint struct {
	Phase           string  `json:"phase"`
	Packets         int64   `json:"packets"`
	Cycles          int64   `json:"cycles"`
	CyclesPerPacket float64 `json:"cycles_per_packet"`
}

// AdaptiveResults is the document click-bench -json writes for the
// adaptive experiment: the per-phase measurements, the controller's
// decision, and the improvement the mid-run re-optimization bought.
type AdaptiveResults struct {
	Points         []AdaptivePoint   `json:"points"`
	Reasons        []string          `json:"reasons"`
	PassesApplied  []string          `json:"passes_applied"`
	ImprovementPct float64           `json:"improvement_pct"`
	PassReports    []*opt.PassReport `json:"pass_reports,omitempty"`
}

// AdaptiveBench runs the unoptimized IP router on a shifting workload,
// lets the adaptive controller re-optimize and hot-swap it mid-run, and
// reports model cycles per packet before and after adaptation.
func AdaptiveBench(w io.Writer) error {
	const (
		nIfs   = 4
		light  = 200   // below the controller's MinPackets threshold
		heavy  = 20000 // well past it
		minPkt = 1000
	)
	ifs := iprouter.Interfaces(nIfs)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "adaptivebench")
	if err != nil {
		return err
	}
	env := map[string]interface{}{}
	devs := make([]*memDevice, nIfs)
	for i, itf := range ifs {
		devs[i] = &memDevice{name: itf.Device}
		env["device:"+itf.Device] = devs[i]
	}
	rt, err := core.Build(g, elements.NewRegistry(), modelOptions(env))
	if err != nil {
		return err
	}
	for _, e := range rt.Elements() {
		if aq, ok := e.(*elements.ARPQuerier); ok {
			for _, itf := range ifs {
				aq.InsertEntry(itf.HostAddr, itf.HostEth)
			}
		}
	}

	sent := func() int64 {
		var n int64
		for _, d := range devs {
			n += d.sent
		}
		return n
	}
	// runPhase offers npkts packets split across the first half of the
	// interfaces, drains the router, and measures the phase's model
	// cycles per forwarded packet. Hot-swaps transplant the counters, so
	// deltas stay consistent across a mid-run router replacement.
	runPhase := func(phase string, npkts int) (AdaptivePoint, error) {
		c0, s0 := core.Totals(rt.StatsReport()).Cycles, sent()
		half := len(ifs) / 2
		per := npkts / half
		for i := 0; i < half; i++ {
			tmpl := packet.BuildUDP4(ifs[i].HostEth, ifs[i].Ether,
				ifs[i].HostAddr, ifs[i+half].HostAddr, 1234, 5678, make([]byte, 14))
			for j := 0; j < per; j++ {
				devs[i].rx = append(devs[i].rx, tmpl.Clone())
			}
		}
		rt.RunUntilIdle(per + 1000)
		c1, s1 := core.Totals(rt.StatsReport()).Cycles, sent()
		pkts := s1 - s0
		if want := int64(per * half); pkts != want {
			return AdaptivePoint{}, fmt.Errorf("adaptive: phase %s forwarded %d of %d packets", phase, pkts, want)
		}
		return AdaptivePoint{
			Phase:           phase,
			Packets:         pkts,
			Cycles:          c1 - c0,
			CyclesPerPacket: float64(c1-c0) / float64(pkts),
		}, nil
	}

	ctrl := opt.NewAdaptive(opt.AdaptiveOptions{MinPackets: minPkt, ColdSamples: 3})
	var results AdaptiveResults

	// Phase 1: a trickle. The controller sees nothing worth optimizing.
	pt, err := runPhase("light", light)
	if err != nil {
		return err
	}
	results.Points = append(results.Points, pt)
	if d := ctrl.Observe(rt.Graph, rt.StatsReport()); d.Any() {
		return fmt.Errorf("adaptive: controller optimized an idle router: %v", d.Reasons)
	}

	// Phase 2: the workload shifts to sustained traffic, still on the
	// unoptimized router — this is the "before" measurement.
	pt, err = runPhase("heavy-before", heavy)
	if err != nil {
		return err
	}
	results.Points = append(results.Points, pt)

	// The controller now sees hot classifiers and re-optimizes the live
	// configuration; the replacement is hot-swapped in with all queue and
	// ARP state transplanted (no re-warm below).
	d := ctrl.Observe(rt.Graph, rt.StatsReport())
	if !d.Any() {
		return fmt.Errorf("adaptive: controller ignored a hot router")
	}
	results.Reasons = d.Reasons
	ng, reg, err := opt.Reoptimize(rt.Graph, d)
	if err != nil {
		return err
	}
	next, err := core.Build(ng, reg, modelOptions(env))
	if err != nil {
		return err
	}
	if err := rt.Hotswap(next); err != nil {
		return err
	}
	rt = next

	// Phase 3: the same sustained traffic on the adapted router.
	pt, err = runPhase("heavy-after", heavy)
	if err != nil {
		return err
	}
	results.Points = append(results.Points, pt)

	before := results.Points[1].CyclesPerPacket
	after := results.Points[2].CyclesPerPacket
	results.ImprovementPct = 100 * (before - after) / before
	if reps, err := opt.Reports(rt.Graph); err == nil {
		results.PassReports = reps
		for _, r := range reps {
			if r.Pass == "adaptive" {
				results.PassesApplied = r.PassesApplied
			}
		}
	}

	fmt.Fprintf(w, "Adaptive re-optimization on a shifting workload (model cycles, unoptimized IP router)\n")
	fmt.Fprintf(w, "%-14s %10s %14s %18s\n", "phase", "packets", "cycles", "cycles/packet")
	for _, p := range results.Points {
		fmt.Fprintf(w, "%-14s %10d %14d %18.1f\n", p.Phase, p.Packets, p.Cycles, p.CyclesPerPacket)
	}
	for _, r := range results.Reasons {
		fmt.Fprintf(w, "decision: %s\n", r)
	}
	fmt.Fprintf(w, "passes applied: %v\n", results.PassesApplied)
	fmt.Fprintf(w, "cycles/packet improvement after adaptation: %.1f%%\n", results.ImprovementPct)

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
