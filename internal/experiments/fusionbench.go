package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/opt"
	"repro/internal/packet"
)

// The fusion benchmark measures what whole-path classifier fusion buys
// as the ruleset scales: the 8-interface IP router gains an IPFilter →
// IPClassifier → StaticSwitch classification run on interface 0's input
// path, the filter's ruleset sweeps 10 → 5000 rules, and each point is
// measured unoptimized, with fastclassifier alone, with the full §8.2
// optimizer chain, and with click-fuse composing the run into a single
// decision diagram on top of that chain. Cost is deterministic model
// cycles per forwarded packet; the diagram/tree node counts come from
// the fuse pass report, so the compactness claim (shared subtrees keep
// the diagram sub-linear where rule chains grow linearly) is measured,
// not asserted.

// FusionPoint is one (ruleset size × variant) measurement.
type FusionPoint struct {
	Rules           int     `json:"rules"`
	Variant         string  `json:"variant"`
	Packets         int64   `json:"packets"`
	Cycles          int64   `json:"cycles"`
	CyclesPerPacket float64 `json:"cycles_per_packet"`
	TreeNodes       int     `json:"tree_nodes,omitempty"`
	DiagramNodes    int     `json:"diagram_nodes,omitempty"`
	RunsFused       int     `json:"runs_fused,omitempty"`
}

// FusionResults is the document click-bench -json writes for the
// fusion experiment.
type FusionResults struct {
	Points []FusionPoint `json:"points"`
}

// fusionRule is one generated firewall rule: admit UDP from one host to
// one destination port.
type fusionRule struct {
	a, b int // source host 10.9.a.b
	port int
}

// fusionRules draws n admit rules from a capped host×port pool, so at
// large n the ruleset repeats itself the way long real ACLs do —
// shadowed duplicates the decision diagram can collapse — and appends
// the default deny. Every rule matters: there is no catch-all admit.
func fusionRules(r *rand.Rand, n int) ([]fusionRule, []string) {
	hostPool := n / 2
	if hostPool < 4 {
		hostPool = 4
	}
	if hostPool > 600 {
		hostPool = 600
	}
	rules := make([]fusionRule, n)
	texts := make([]string, 0, n+1)
	for i := range rules {
		h := r.Intn(hostPool)
		rules[i] = fusionRule{a: h / 250, b: 1 + h%250, port: 1000 + r.Intn(16)}
		texts = append(texts, fmt.Sprintf("allow src host 10.9.%d.%d && udp && dst port %d",
			rules[i].a, rules[i].b, rules[i].port))
	}
	texts = append(texts, "deny all")
	return rules, texts
}

// fusionConfig splices the classification run into interface 0's input
// path of the n-interface IP router.
func fusionConfig(ifs []iprouter.Interface, ruleTexts []string) string {
	inject := fmt.Sprintf(
		"GetIPAddress(16) -> flt :: IPFilter(%s);\n"+
			"flt [0] -> fc :: IPClassifier(udp, tcp, -);\n"+
			"fc [0] -> sw :: StaticSwitch(0) -> rt;\nfc [1] -> rt;\nfc [2] -> rt;\n",
		strings.Join(ruleTexts, ", "))
	return strings.Replace(iprouter.Config(ifs), "GetIPAddress(16) -> rt;", inject, 1)
}

// fusionTrace builds admitted transit traffic: every packet matches one
// of the admit rules and routes to a non-ingress interface.
func fusionTrace(r *rand.Rand, ifs []iprouter.Interface, rules []fusionRule, n int) []*packet.Packet {
	ps := make([]*packet.Packet, n)
	for i := range ps {
		rule := rules[r.Intn(len(rules))]
		dst := 1 + r.Intn(len(ifs)-1)
		payload := make([]byte, 14+r.Intn(18))
		payload[0], payload[1] = byte(i>>8), byte(i)
		ps[i] = packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
			packet.MakeIP4(10, 9, byte(rule.a), byte(rule.b)), ifs[dst].HostAddr,
			uint16(1024+r.Intn(512)), uint16(rule.port), payload)
	}
	return ps
}

// fusionVariants are the optimization levels under comparison.
var fusionVariants = []struct {
	name  string
	apply func(g *graph.Router, reg *core.Registry) error
}{
	{"base", nil},
	{"fastclassifier", opt.FastClassifier},
	{"all", fusionAllPasses},
	{"fuse", func(g *graph.Router, reg *core.Registry) error {
		if err := opt.Fuse(g, reg); err != nil {
			return err
		}
		return fusionAllPasses(g, reg)
	}},
}

// fusionAllPasses is the §8.2 "All" chain: xform combo substitutions,
// compiled classifiers, devirtualized transfers.
func fusionAllPasses(g *graph.Router, reg *core.Registry) error {
	pairs, err := opt.ParsePatterns(iprouter.ComboPatterns, "combopatterns")
	if err != nil {
		return err
	}
	opt.Xform(g, pairs)
	if err := opt.FastClassifier(g, reg); err != nil {
		return err
	}
	return opt.Devirtualize(g, reg, nil)
}

// runFusionPoint builds one variant of the router, replays the trace,
// and measures model cycles per forwarded packet.
func runFusionPoint(text, variant string,
	apply func(g *graph.Router, reg *core.Registry) error,
	ifs []iprouter.Interface, trace []*packet.Packet) (FusionPoint, error) {
	pt := FusionPoint{Variant: variant}
	rt, devs, err := buildOnMemDevices(text, "fusionbench", apply, ifs, modelOptions(nil))
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
		return pt, fmt.Errorf("fusion: %s forwarded nothing", variant)
	}
	pt.Packets = sent
	pt.Cycles = core.Totals(rt.StatsReport()).Cycles - c0
	pt.CyclesPerPacket = float64(pt.Cycles) / float64(sent)
	if reps, err := opt.Reports(rt.Graph); err == nil {
		for _, r := range reps {
			if r.Pass == "fuse" {
				pt.TreeNodes = r.TreeNodes
				pt.DiagramNodes = r.DiagramNodes
				pt.RunsFused = r.RunsFused
			}
		}
	}
	return pt, nil
}

// FusionSizes is the ruleset sweep; FusionPackets the per-point trace
// length. Both are variables so the smoke test can shrink them.
var (
	FusionSizes   = []int{10, 50, 100, 500, 1000, 2000, 5000}
	FusionPackets = 1500
)

// FusionBench runs the ruleset sweep across the four variants and
// checks the claims the experiment exists to prove: identical
// forwarding across variants, fusion strictly cheaper than the full
// conventional chain at >= 1000 rules, and sub-linear diagram growth.
func FusionBench(w io.Writer) error {
	ifs := iprouter.Interfaces(EvalInterfaces)
	var results FusionResults
	fmt.Fprintf(w, "Classifier fusion vs ruleset size (model cycles, %d-interface IP router + firewall run)\n", EvalInterfaces)
	fmt.Fprintf(w, "%-7s %14s %14s %14s %14s %10s %10s\n",
		"rules", "base c/p", "fastcls c/p", "all c/p", "fuse c/p", "tree", "diagram")

	type ratioPoint struct {
		rules        int
		all, fuse    float64
		diagramNodes int
	}
	var ratios []ratioPoint
	for _, n := range FusionSizes {
		r := rand.New(rand.NewSource(int64(1000 + n)))
		rules, texts := fusionRules(r, n)
		text := fusionConfig(ifs, texts)
		trace := fusionTrace(r, ifs, rules, FusionPackets)

		pts := make(map[string]FusionPoint, len(fusionVariants))
		for _, v := range fusionVariants {
			pt, err := runFusionPoint(text, v.name, v.apply, ifs, trace)
			if err != nil {
				return fmt.Errorf("fusion: %d rules: %v", n, err)
			}
			pt.Rules = n
			pts[v.name] = pt
			results.Points = append(results.Points, pt)
		}
		for _, v := range fusionVariants[1:] {
			if pts[v.name].Packets != pts["base"].Packets {
				return fmt.Errorf("fusion: %d rules: %s forwarded %d packets, base %d",
					n, v.name, pts[v.name].Packets, pts["base"].Packets)
			}
		}
		if pts["fuse"].RunsFused < 1 {
			return fmt.Errorf("fusion: %d rules: nothing fused", n)
		}
		fmt.Fprintf(w, "%-7d %14.1f %14.1f %14.1f %14.1f %10d %10d\n", n,
			pts["base"].CyclesPerPacket, pts["fastclassifier"].CyclesPerPacket,
			pts["all"].CyclesPerPacket, pts["fuse"].CyclesPerPacket,
			pts["fuse"].TreeNodes, pts["fuse"].DiagramNodes)
		ratios = append(ratios, ratioPoint{n, pts["all"].CyclesPerPacket,
			pts["fuse"].CyclesPerPacket, pts["fuse"].DiagramNodes})
	}

	// The headline claims, checked here so a regression fails the bench
	// rather than silently shifting a JSON number.
	var first, last *ratioPoint
	for i := range ratios {
		p := &ratios[i]
		if p.rules >= 1000 {
			if p.fuse >= p.all {
				return fmt.Errorf("fusion: %d rules: fused %.1f c/p not below full chain %.1f",
					p.rules, p.fuse, p.all)
			}
			if first == nil {
				first = p
			}
			last = p
		}
	}
	if first != nil && last != nil && first != last {
		nodeGrowth := float64(last.diagramNodes) / float64(first.diagramNodes)
		ruleGrowth := float64(last.rules) / float64(first.rules)
		fmt.Fprintf(w, "diagram nodes %d -> %d rules: %.2fx (rules %.1fx)\n",
			first.rules, last.rules, nodeGrowth, ruleGrowth)
		if nodeGrowth >= ruleGrowth {
			return fmt.Errorf("fusion: diagram growth %.2fx not sub-linear in rule growth %.2fx",
				nodeGrowth, ruleGrowth)
		}
	}

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
