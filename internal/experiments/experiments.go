// Package experiments regenerates every table and figure in the paper's
// evaluation (§4, §8). Each driver prints the same rows or series the
// paper reports, alongside the paper's published values where they
// exist, so EXPERIMENTS.md can record paper-vs-measured directly.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// EvalInterfaces is the number of router interfaces in the §8.1 testbed.
const EvalInterfaces = 8

// Pro1000PIONS is the per-packet programmed-I/O CPU cost of the gigabit
// card used on P1-P3 (§8.5).
const Pro1000PIONS = 250

// stdOpts returns testbed options per platform: P0 drives the Tulip
// testbed, P1-P3 the two-interface gigabit testbed.
func stdOpts(plat *simcpu.Platform, ifs []iprouter.Interface) netsim.TestbedOptions {
	o := netsim.TestbedOptions{Platform: plat, Ifs: ifs, NIC: netsim.Tulip}
	if plat != simcpu.P0 {
		o.NIC = netsim.Pro1000
		o.PIOAccessNS = Pro1000PIONS
	}
	return o
}

// CostPoint measures one configuration's per-packet CPU cost breakdown
// at a comfortable (loss-free) load.
func CostPoint(v netsim.ConfigVariant, ifs []iprouter.Interface, plat *simcpu.Platform) (netsim.Result, error) {
	o := stdOpts(plat, ifs)
	o.Registry = v.Registry
	return netsim.RunPoint(v.Graph, o, 100000, 5e6, 20e6)
}

// Fig8 reproduces Figure 8: the CPU cost breakdown for the unoptimized
// IP router.
func Fig8(w io.Writer) error {
	variants, ifs, err := netsim.PrepareVariants(EvalInterfaces)
	if err != nil {
		return err
	}
	res, err := CostPoint(variants[0], ifs, simcpu.P0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8: CPU cost breakdown, unoptimized IP router (P0)\n")
	fmt.Fprintf(w, "%-36s %12s %10s\n", "Task", "measured ns", "paper ns")
	fmt.Fprintf(w, "%-36s %12.0f %10d\n", "Receiving device interactions", res.RxDeviceNS, 701)
	fmt.Fprintf(w, "%-36s %12.0f %10d\n", "Click forwarding path", res.ForwardNS, 1657)
	fmt.Fprintf(w, "%-36s %12.0f %10d\n", "Transmitting device interactions", res.TxDeviceNS, 547)
	fmt.Fprintf(w, "%-36s %12.0f %10d\n", "Total", res.TotalCPUNS, 2905)
	return nil
}

// Fig9 reproduces Figure 9: the effect of each optimization on CPU
// time. Paper values (ns): Base 1657/2905, All 1101/2349, MR+All
// 1061/2309; FC cuts ~3%, XF is the strongest single pass.
func Fig9(w io.Writer) error {
	variants, ifs, err := netsim.PrepareVariants(EvalInterfaces)
	if err != nil {
		return err
	}
	paperPath := map[string]string{
		"Base": "1657", "FC": "~1607", "DV": "~1380", "XF": "~1350",
		"All": "1101", "MR+All": "1061", "Simple": "~400",
	}
	fmt.Fprintf(w, "Figure 9: effect of language optimizations on CPU time (P0)\n")
	fmt.Fprintf(w, "%-8s %16s %14s %12s\n", "Config", "fwd path ns", "total ns", "paper fwd")
	for _, v := range variants {
		res, err := CostPoint(v, ifs, simcpu.P0)
		if err != nil {
			return fmt.Errorf("%s: %v", v.Name, err)
		}
		fmt.Fprintf(w, "%-8s %16.0f %14.0f %12s\n", v.Name, res.ForwardNS, res.TotalCPUNS, paperPath[v.Name])
	}
	return nil
}

// Fig10 reproduces Figure 10: forwarding rate versus input rate for the
// variously optimized routers.
func Fig10(w io.Writer) error {
	variants, ifs, err := netsim.PrepareVariants(EvalInterfaces)
	if err != nil {
		return err
	}
	rates := []float64{50000, 100000, 150000, 200000, 250000, 300000,
		350000, 400000, 450000, 500000, 550000, 590000}
	fmt.Fprintf(w, "Figure 10: forwarding rate vs input rate, 64-byte packets (P0), kpps\n")
	fmt.Fprintf(w, "%-8s", "input")
	for _, v := range variants {
		fmt.Fprintf(w, " %8s", v.Name)
	}
	fmt.Fprintln(w)
	series := make(map[string][]float64)
	for _, v := range variants {
		o := stdOpts(simcpu.P0, ifs)
		o.Registry = v.Registry
		for _, rate := range rates {
			res, err := netsim.RunPoint(v.Graph, o, rate, 20e6, 50e6)
			if err != nil {
				return fmt.Errorf("%s @%.0f: %v", v.Name, rate, err)
			}
			series[v.Name] = append(series[v.Name], res.ForwardPPS)
		}
	}
	for ri, rate := range rates {
		fmt.Fprintf(w, "%-8.0f", rate/1000)
		for _, v := range variants {
			fmt.Fprintf(w, " %8.0f", series[v.Name][ri]/1000)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(paper MLFFRs: Base 357k, All 446k, MR+All 457k; past their peaks the paper's optimized curves dip ~10%% before FIFO overflows flatten them — this model plateaus at the peak)\n")
	return nil
}

// Fig11 reproduces Figure 11: cumulative packet-outcome rates as a
// function of input rate for Simple, Base, and MR+All.
func Fig11(w io.Writer) error {
	variants, ifs, err := netsim.PrepareVariants(EvalInterfaces)
	if err != nil {
		return err
	}
	byName := map[string]netsim.ConfigVariant{}
	for _, v := range variants {
		byName[v.Name] = v
	}
	rates := []float64{100000, 200000, 300000, 350000, 400000, 450000, 500000, 550000, 590000}
	for _, name := range []string{"Simple", "Base", "MR+All"} {
		v := byName[name]
		o := stdOpts(simcpu.P0, ifs)
		o.Registry = v.Registry
		fmt.Fprintf(w, "Figure 11 (%s): outcome rates (kpps)\n", name)
		fmt.Fprintf(w, "%-8s %8s %8s %8s %8s\n", "input", "sent", "queue", "missed", "fifo")
		for _, rate := range rates {
			res, err := netsim.RunPoint(v.Graph, o, rate, 20e6, 50e6)
			if err != nil {
				return fmt.Errorf("%s @%.0f: %v", name, rate, err)
			}
			k := func(n int64) float64 { return float64(n) / res.WindowNS * 1e9 / 1000 }
			fmt.Fprintf(w, "%-8.0f %8.0f %8.0f %8.0f %8.0f\n",
				rate/1000, res.ForwardPPS/1000,
				k(res.Outcomes.QueueDrops), k(res.Outcomes.MissedFrames), k(res.Outcomes.FIFOOverflows))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(paper: Base drops only missed frames; Simple drops only FIFO overflows and Queue drops)\n")
	return nil
}

// fig12Paper holds the published MLFFR table.
var fig12Paper = map[string][2]int{
	"P0": {446000, 357000},
	"P1": {430000, 350000},
	"P2": {450000, 330000},
	"P3": {740000, 640000},
}

// Fig12 reproduces Figure 12: the effect of "All" on MLFFR per
// platform.
func Fig12(w io.Writer) error {
	fmt.Fprintf(w, "Figure 12: MLFFR (packets/s) per platform\n")
	fmt.Fprintf(w, "%-8s %10s %10s %7s %18s\n", "Platform", "All", "Base", "Ratio", "paper All/Base")
	for _, plat := range simcpu.Platforms {
		nIfs := EvalInterfaces
		hi := 650000.0
		if plat != simcpu.P0 {
			nIfs = 2
			hi = 1300000
		}
		variants, ifs, err := netsim.PrepareVariants(nIfs)
		if err != nil {
			return err
		}
		byName := map[string]netsim.ConfigVariant{}
		for _, v := range variants {
			byName[v.Name] = v
		}
		vals := map[string]float64{}
		for _, name := range []string{"All", "Base"} {
			v := byName[name]
			o := stdOpts(plat, ifs)
			o.Registry = v.Registry
			rate, err := netsim.MLFFR(v.Graph, o, 100000, hi, 8000)
			if err != nil {
				return fmt.Errorf("%s/%s: %v", plat.Name, name, err)
			}
			vals[name] = rate
		}
		p := fig12Paper[plat.Name]
		fmt.Fprintf(w, "%-8s %10.0f %10.0f %7.2f %9d/%d=%.2f\n",
			plat.Name, vals["All"], vals["Base"], vals["All"]/vals["Base"],
			p[0], p[1], float64(p[0])/float64(p[1]))
	}
	return nil
}

// Fig13 reproduces Figure 13: forwarding rate curves on the hardware
// evolution platforms (two gigabit interfaces).
func Fig13(w io.Writer) error {
	variants, ifs, err := netsim.PrepareVariants(2)
	if err != nil {
		return err
	}
	byName := map[string]netsim.ConfigVariant{}
	for _, v := range variants {
		byName[v.Name] = v
	}
	rates := []float64{100000, 200000, 300000, 400000, 500000, 600000, 700000, 800000, 900000, 1000000}
	fmt.Fprintf(w, "Figure 13: forwarding rate vs input rate per platform (kpps)\n")
	fmt.Fprintf(w, "%-8s", "input")
	for _, plat := range []*simcpu.Platform{simcpu.P1, simcpu.P2, simcpu.P3} {
		for _, cfg := range []string{"Base", "All"} {
			fmt.Fprintf(w, " %10s", plat.Name+"/"+cfg)
		}
	}
	fmt.Fprintln(w)
	type key struct{ plat, cfg string }
	series := map[key][]float64{}
	for _, plat := range []*simcpu.Platform{simcpu.P1, simcpu.P2, simcpu.P3} {
		for _, cfg := range []string{"Base", "All"} {
			v := byName[cfg]
			o := stdOpts(plat, ifs)
			o.Registry = v.Registry
			for _, rate := range rates {
				res, err := netsim.RunPoint(v.Graph, o, rate, 20e6, 50e6)
				if err != nil {
					return err
				}
				series[key{plat.Name, cfg}] = append(series[key{plat.Name, cfg}], res.ForwardPPS)
			}
		}
	}
	for ri, rate := range rates {
		fmt.Fprintf(w, "%-8.0f", rate/1000)
		for _, plat := range []string{"P1", "P2", "P3"} {
			for _, cfg := range []string{"Base", "All"} {
				fmt.Fprintf(w, " %10.0f", series[key{plat, cfg}][ri]/1000)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// FastClassifierCost reproduces §4's measurement: the CPU cost of the
// 17-rule firewall IPFilter for a packet matching the next-to-last rule
// (DNS-5), interpreted versus compiled. Paper: 388 ns -> 188 ns on P0.
func FastClassifierCost(w io.Writer) error {
	interp, compiled, steps, err := MeasureFirewall()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Section 4: 17-rule firewall, DNS-5 packet (P0)\n")
	fmt.Fprintf(w, "%-28s %12s %10s\n", "Classifier", "measured ns", "paper ns")
	fmt.Fprintf(w, "%-28s %12.0f %10d\n", "IPFilter (interpreted)", interp, 388)
	fmt.Fprintf(w, "%-28s %12.0f %10d\n", "click-fastclassifier", compiled, 188)
	fmt.Fprintf(w, "decision-tree steps for DNS-5: %d\n", steps)
	return nil
}

// MeasureFirewall returns the §4 costs in model nanoseconds plus the
// tree-step count.
func MeasureFirewall() (interpNS, compiledNS float64, steps int, err error) {
	reg := elements.NewRegistry()
	rules := iprouter.FirewallConfigArg()
	cfg := fmt.Sprintf("i :: Idle -> f :: IPFilter(%s) -> d :: Discard;", rules)

	measure := func(config string, r *core.Registry) (float64, core.Element, error) {
		cpu := simcpu.New(simcpu.P0)
		rt, err := core.BuildFromText(config, "firewall", r, core.BuildOptions{CPU: cpu})
		if err != nil {
			return 0, nil, err
		}
		f := rt.Find("f")
		const rounds = 1000
		// Warm the predictor, then measure.
		f.Push(0, iprouter.DNS5Packet())
		cpu.Reset()
		for i := 0; i < rounds; i++ {
			f.Push(0, iprouter.DNS5Packet())
		}
		return cpu.TotalNS() / rounds, f, nil
	}

	interpNS, f, err := measure(cfg, reg)
	if err != nil {
		return 0, 0, 0, err
	}
	prog := f.(interface {
		Program() *classifier.Program
	}).Program()
	_, _, steps = prog.Match(iprouter.DNS5Packet().Data())

	// The fastclassified version.
	g, err := lang.ParseRouter(cfg, "firewall")
	if err != nil {
		return 0, 0, 0, err
	}
	fcReg := elements.NewRegistry()
	if err := opt.FastClassifier(g, fcReg); err != nil {
		return 0, 0, 0, err
	}
	fcfg := lang.Unparse(g)
	compiledNS, _, err = measure(fcfg, fcReg)
	if err != nil {
		return 0, 0, 0, err
	}
	return interpNS, compiledNS, steps, nil
}

// VCall demonstrates §3's virtual call analysis: correctly predicted
// indirect calls cost ~7 cycles; the Figure 2 configuration (same-class
// elements transferring to different classes through one shared call
// site) defeats the predictor; devirtualization removes the dispatch
// entirely.
func VCall(w io.Writer) error {
	stats, err := MeasureVCall()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Section 3: virtual function call cost on P0 (per packet transfer)\n")
	fmt.Fprintf(w, "%-44s %10s %12s\n", "Scenario", "cycles", "mispredicts")
	fmt.Fprintf(w, "%-44s %10.1f %12.2f\n", "predicted (same-class targets)", stats.PredictedCycles, stats.PredictedMispredict)
	fmt.Fprintf(w, "%-44s %10.1f %12.2f\n", "Figure 2 (alternating different targets)", stats.AlternatingCycles, stats.AlternatingMispredict)
	fmt.Fprintf(w, "%-44s %10.1f %12.2f\n", "per-element call sites (modeling ablation)", stats.PerElementCycles, stats.PerElementMispredict)
	fmt.Fprintf(w, "%-44s %10.1f %12.2f\n", "devirtualized (direct calls)", stats.DirectCycles, 0.0)
	fmt.Fprintf(w, "(paper: ~7 cycles predicted, dozens when mispredicted)\n")
	return nil
}

// VCallStats carries the E8 measurements (per-transfer averages).
type VCallStats struct {
	PredictedCycles       float64
	PredictedMispredict   float64
	AlternatingCycles     float64
	AlternatingMispredict float64
	PerElementCycles      float64
	PerElementMispredict  float64
	DirectCycles          float64
}

// MeasureVCall runs the E8 micro-benchmarks on the cost model.
func MeasureVCall() (VCallStats, error) {
	var out VCallStats
	// Two Paint elements pushing to different target classes (the
	// Figure 2 shape), versus both pushing to Counters.
	alternating := `
i0 :: Idle -> p1 :: Paint(1) -> c1 :: Counter -> d1 :: Discard;
i1 :: Idle -> p2 :: Paint(2) -> n2 :: Null -> d2 :: Discard;
`
	aligned := `
i0 :: Idle -> p1 :: Paint(1) -> c1 :: Counter -> d1 :: Discard;
i1 :: Idle -> p2 :: Paint(2) -> c2 :: Counter -> d2 :: Discard;
`
	run := func(cfg string, perElement bool, devirt bool) (cycles, mispredict float64, err error) {
		reg := elements.NewRegistry()
		g, err := lang.ParseRouter(cfg, "vcall")
		if err != nil {
			return 0, 0, err
		}
		if devirt {
			if err := opt.Devirtualize(g, reg, nil); err != nil {
				return 0, 0, err
			}
		}
		cpu := simcpu.New(simcpu.P0)
		rt, err := core.Build(g, reg, core.BuildOptions{CPU: cpu, PerElementSites: perElement})
		if err != nil {
			return 0, 0, err
		}
		var p1, p2 core.Element
		for _, e := range rt.Elements() {
			type namer interface{ Name() string }
			switch e.(namer).Name() {
			case "p1":
				p1 = e
			case "p2":
				p2 = e
			}
		}
		mk := func() *packet.Packet {
			return packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{},
				packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 1, 2, make([]byte, 14))
		}
		// Warm, then measure the alternating stream.
		p1.Push(0, mk())
		p2.Push(0, mk())
		cpu.Reset()
		const rounds = 2000
		for i := 0; i < rounds; i++ {
			p1.Push(0, mk())
			p2.Push(0, mk())
		}
		calls := cpu.Calls + cpu.Direct
		if calls == 0 {
			return 0, 0, fmt.Errorf("no transfers charged")
		}
		// Isolate transfer cost: subtract element work (constant per
		// round) by measuring call-cost directly from counters.
		transferCycles := float64(cpu.Mispred)*float64(simcpu.P0.MispredictPenalty) +
			float64(cpu.Calls)*float64(simcpu.P0.PredictedCall) +
			float64(cpu.Direct)*float64(simcpu.P0.DirectCall)
		return transferCycles / float64(calls), float64(cpu.Mispred) / float64(calls), nil
	}
	var err error
	if out.PredictedCycles, out.PredictedMispredict, err = run(aligned, false, false); err != nil {
		return out, err
	}
	if out.AlternatingCycles, out.AlternatingMispredict, err = run(alternating, false, false); err != nil {
		return out, err
	}
	if out.PerElementCycles, out.PerElementMispredict, err = run(alternating, true, false); err != nil {
		return out, err
	}
	if out.DirectCycles, _, err = run(alternating, false, true); err != nil {
		return out, err
	}
	return out, nil
}

// Ablation reports the §3/§6 design-choice ablations: forwarding-path
// element count vs cost, classifier tree optimization on/off, and
// devirtualization code-sharing vs one-class-per-element.
func Ablation(w io.Writer) error {
	fmt.Fprintf(w, "Ablation A: per-packet path cost vs element count (alternating Counter/Null chain, P0 model)\n")
	fmt.Fprintf(w, "%-10s %12s\n", "elements", "ns/packet")
	for _, k := range []int{1, 2, 4, 8, 16} {
		ns, err := chainCost(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10d %12.0f\n", k, ns)
	}

	fmt.Fprintf(w, "\nAblation B: classifier decision-tree optimization (17-rule firewall)\n")
	raw, err := classifier.BuildIPFilterProgram(iprouter.FirewallRules())
	if err != nil {
		return err
	}
	rawNodes := len(raw.Exprs)
	_, _, rawSteps := raw.Match(iprouter.DNS5Packet().Data())
	optp, err := classifier.BuildIPFilterProgram(iprouter.FirewallRules())
	if err != nil {
		return err
	}
	optp.Optimize()
	_, _, optSteps := optp.Match(iprouter.DNS5Packet().Data())
	fmt.Fprintf(w, "%-14s %8s %14s\n", "tree", "nodes", "DNS-5 steps")
	fmt.Fprintf(w, "%-14s %8d %14d\n", "unoptimized", rawNodes, rawSteps)
	fmt.Fprintf(w, "%-14s %8d %14d\n", "optimized", len(optp.Exprs), optSteps)

	fmt.Fprintf(w, "\nAblation C: devirtualization code sharing (8-interface IP router)\n")
	shared, perElement, err := devirtClassCounts()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-36s %8d generated classes\n", "with the Section 6.1 sharing rules", shared)
	fmt.Fprintf(w, "%-36s %8d generated classes\n", "one class per element (no sharing)", perElement)
	return nil
}

// chainCost measures the model cost of pushing packets through k
// Counters.
func chainCost(k int) (float64, error) {
	cfg := "i :: Idle -> "
	for j := 0; j < k; j++ {
		// Alternate classes so the branch predictor stays warm and the
		// marginal cost isolates per-element work plus one predicted
		// transfer (a same-class chain would also demonstrate the
		// Figure 2 misprediction pathology — see VCall for that).
		class := "Counter"
		if j%2 == 1 {
			class = "Null"
		}
		cfg += fmt.Sprintf("c%d :: %s -> ", j, class)
	}
	cfg += "d :: Discard;"
	cpu := simcpu.New(simcpu.P0)
	rt, err := core.BuildFromText(cfg, "chain", elements.NewRegistry(), core.BuildOptions{CPU: cpu})
	if err != nil {
		return 0, err
	}
	head := rt.Find("c0")
	mk := func() *packet.Packet {
		return packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{},
			packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 1, 2, make([]byte, 14))
	}
	head.Push(0, mk())
	cpu.Reset()
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		head.Push(0, mk())
	}
	return cpu.TotalNS() / rounds, nil
}

// devirtClassCounts compares generated class counts under the sharing
// rules versus per-element generation.
func devirtClassCounts() (shared, perElement int, err error) {
	ifs := iprouter.Interfaces(EvalInterfaces)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "iprouter")
	if err != nil {
		return 0, 0, err
	}
	reg := elements.NewRegistry()
	if err := opt.Devirtualize(g, reg, nil); err != nil {
		return 0, 0, err
	}
	classes := map[string]bool{}
	for _, i := range g.LiveIndices() {
		classes[g.Element(i).Class] = true
	}
	shared = len(classes)
	perElement = g.NumElements()
	return shared, perElement, nil
}

// All runs every experiment in order.
func All(w io.Writer) error {
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"fastclassifier", FastClassifierCost},
		{"vcall", VCall},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"ablation", Ablation},
	}
	for _, s := range steps {
		if err := s.fn(w); err != nil {
			return fmt.Errorf("%s: %v", s.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// JSONPath, when non-empty, is where the wall-clock experiments also
// write their results as JSON (set by cmd/click-bench -json).
var JSONPath string

// Experiments lists the available experiment names for cmd/click-bench.
var Experiments = map[string]func(io.Writer) error{
	"fastclassifier": FastClassifierCost,
	"vcall":          VCall,
	"fig8":           Fig8,
	"fig9":           Fig9,
	"fig10":          Fig10,
	"fig11":          Fig11,
	"fig12":          Fig12,
	"fig13":          Fig13,
	"ablation":       Ablation,
	"adaptive":       AdaptiveBench,
	"fusion":         FusionBench,
	"flowcache":      FlowCacheBench,
	"tenants":        TenantsBench,
	"all":            All,
}
