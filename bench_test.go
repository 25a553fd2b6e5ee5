// Benchmarks regenerating the paper's evaluation (§4, §8), one per
// table/figure. Two kinds of numbers appear here:
//
//   - real wall-clock (ns/op): this Go implementation's own speed, where
//     the optimizations' structural effects (fewer elements, fewer
//     dispatches, compiled classifiers) show up directly;
//   - model metrics (reported via b.ReportMetric as model-ns/packet
//     etc.): the simulated 700 MHz Pentium III cost model, which is what
//     reproduces the paper's published numbers.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/experiments"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/netsim"
	"repro/internal/opt"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// benchDevice is a minimal elements.Device for driving routers.
type benchDevice struct {
	name string
	rx   []*packet.Packet
	sent int64
}

func (d *benchDevice) DeviceName() string { return d.name }
func (d *benchDevice) RxDequeue() *packet.Packet {
	if len(d.rx) == 0 {
		return nil
	}
	p := d.rx[0]
	d.rx = d.rx[1:]
	return p
}
func (d *benchDevice) TxEnqueue(p *packet.Packet) bool { d.sent++; p.Kill(); return true }
func (d *benchDevice) TxRoom() bool                    { return true }
func (d *benchDevice) TxClean() int                    { return 0 }

// benchRouter builds a 2-interface IP-router variant wired to bench
// devices, returning the router and the input device.
func benchRouter(b *testing.B, variant string) (*core.Router, *benchDevice, []iprouter.Interface) {
	b.Helper()
	return benchRouterBurst(b, variant, 0)
}

// benchRouterBurst is benchRouter with a router Burst build option
// (0 or 1 = the scalar transfer path).
func benchRouterBurst(b *testing.B, variant string, burst int) (*core.Router, *benchDevice, []iprouter.Interface) {
	b.Helper()
	ifs := iprouter.Interfaces(2)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "bench")
	if err != nil {
		b.Fatal(err)
	}
	reg := elements.NewRegistry()
	switch variant {
	case "Base":
	case "XF":
		pairs, err := opt.ParsePatterns(iprouter.ComboPatterns, "combo")
		if err != nil {
			b.Fatal(err)
		}
		opt.Xform(g, pairs)
	case "All":
		pairs, err := opt.ParsePatterns(iprouter.ComboPatterns, "combo")
		if err != nil {
			b.Fatal(err)
		}
		opt.Xform(g, pairs)
		if err := opt.FastClassifier(g, reg); err != nil {
			b.Fatal(err)
		}
		if err := opt.Devirtualize(g, reg, nil); err != nil {
			b.Fatal(err)
		}
	default:
		b.Fatalf("unknown variant %q", variant)
	}
	devs := map[string]interface{}{}
	in := &benchDevice{name: "eth0"}
	devs["device:eth0"] = in
	devs["device:eth1"] = &benchDevice{name: "eth1"}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: devs, Burst: burst})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range rt.Elements() {
		if aq, ok := e.(*elements.ARPQuerier); ok {
			for _, itf := range ifs {
				aq.InsertEntry(itf.HostAddr, itf.HostEth)
			}
		}
	}
	return rt, in, ifs
}

func transitPacket(ifs []iprouter.Interface) *packet.Packet {
	return packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
		ifs[0].HostAddr, ifs[1].HostAddr, 1234, 5678, make([]byte, 14))
}

// benchForward measures real wall-clock per forwarded packet for one
// variant (Figure 9's structural effect in this implementation).
func benchForward(b *testing.B, variant string) {
	rt, in, ifs := benchRouter(b, variant)
	tmpl := transitPacket(ifs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.rx = append(in.rx[:0], tmpl.Clone())
		rt.RunTaskRound()
		rt.RunTaskRound() // second round drains the output queue
	}
}

func BenchmarkFig9ForwardingBase(b *testing.B) { benchForward(b, "Base") }
func BenchmarkFig9ForwardingXF(b *testing.B)   { benchForward(b, "XF") }
func BenchmarkFig9ForwardingAll(b *testing.B)  { benchForward(b, "All") }

// benchBatchForward measures wall-clock per forwarded packet with the
// batch transfer path: packets arrive and cross the graph in bursts,
// amortizing the task-loop and dispatch overhead the scalar benchmarks
// pay per packet. Compare BenchmarkBatchForwardingAll against
// BenchmarkFig9ForwardingAll for the batching win.
func benchBatchForward(b *testing.B, variant string) {
	const burst = 32
	rt, in, ifs := benchRouterBurst(b, variant, burst)
	tmpl := transitPacket(ifs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		in.rx = in.rx[:0]
		for j := 0; j < n; j++ {
			in.rx = append(in.rx, tmpl.Clone())
		}
		rt.RunTaskRound()
		rt.RunTaskRound() // second round drains the output queue
	}
}

func BenchmarkBatchForwardingBase(b *testing.B) { benchBatchForward(b, "Base") }
func BenchmarkBatchForwardingAll(b *testing.B)  { benchBatchForward(b, "All") }

// BenchmarkFig8Breakdown reports the model's Figure 8 numbers as
// metrics (the table itself is printed by click-bench -experiment
// fig8).
func BenchmarkFig8Breakdown(b *testing.B) {
	variants, ifs, err := netsim.PrepareVariants(2)
	if err != nil {
		b.Fatal(err)
	}
	var res netsim.Result
	for i := 0; i < b.N; i++ {
		res, err = experiments.CostPoint(variants[0], ifs, simcpu.P0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RxDeviceNS, "model-rx-ns/pkt")
	b.ReportMetric(res.ForwardNS, "model-fwd-ns/pkt")
	b.ReportMetric(res.TxDeviceNS, "model-tx-ns/pkt")
	b.ReportMetric(res.TotalCPUNS, "model-total-ns/pkt")
}

// BenchmarkFig9Model reports each variant's model forwarding-path cost.
func BenchmarkFig9Model(b *testing.B) {
	variants, ifs, err := netsim.PrepareVariants(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range variants {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			var res netsim.Result
			for i := 0; i < b.N; i++ {
				res, err = experiments.CostPoint(v, ifs, simcpu.P0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ForwardNS, "model-fwd-ns/pkt")
			b.ReportMetric(res.TotalCPUNS, "model-total-ns/pkt")
		})
	}
}

// BenchmarkFig10Point runs one Figure 10 operating point per iteration
// and reports the forwarding rate at an overload input (8 interfaces —
// two would be wire-limited below the CPU's capacity).
func BenchmarkFig10Point(b *testing.B) {
	variants, ifs, err := netsim.PrepareVariants(8)
	if err != nil {
		b.Fatal(err)
	}
	base := variants[0]
	o := netsim.TestbedOptions{Platform: simcpu.P0, NIC: netsim.Tulip, Ifs: ifs, Registry: base.Registry}
	var res netsim.Result
	for i := 0; i < b.N; i++ {
		res, err = netsim.RunPoint(base.Graph, o, 500000, 5e6, 20e6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ForwardPPS, "model-fwd-pps")
}

// BenchmarkFig12MLFFR reports the P0 Base MLFFR (the Figure 12 cell the
// rest of the table scales from).
func BenchmarkFig12MLFFR(b *testing.B) {
	variants, ifs, err := netsim.PrepareVariants(8)
	if err != nil {
		b.Fatal(err)
	}
	base := variants[0]
	o := netsim.TestbedOptions{Platform: simcpu.P0, NIC: netsim.Tulip, Ifs: ifs, Registry: base.Registry}
	var rate float64
	for i := 0; i < b.N; i++ {
		rate, err = netsim.MLFFR(base.Graph, o, 150000, 600000, 16000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rate, "model-mlffr-pps")
}

// Section 4: the firewall classifier, interpreted vs compiled — real
// wall clock. The compiled form should win here too, not just in the
// model.
func firewallPrograms(b *testing.B) (*classifier.Program, *classifier.Compiled, []byte) {
	b.Helper()
	prog, err := classifier.BuildIPFilterProgram(iprouter.FirewallRules())
	if err != nil {
		b.Fatal(err)
	}
	prog.Optimize()
	return prog, classifier.Compile(prog), iprouter.DNS5Packet().Data()
}

func BenchmarkSection4FirewallInterpreted(b *testing.B) {
	prog, _, data := firewallPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := prog.Match(data); !ok {
			b.Fatal("DNS-5 packet denied")
		}
	}
}

func BenchmarkSection4FirewallCompiled(b *testing.B) {
	_, comp, data := firewallPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := comp.Match(data); !ok {
			b.Fatal("DNS-5 packet denied")
		}
	}
}

// BenchmarkSection4Model reports the model's §4 numbers.
func BenchmarkSection4Model(b *testing.B) {
	var interp, compiled float64
	var err error
	for i := 0; i < b.N; i++ {
		interp, compiled, _, err = experiments.MeasureFirewall()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(interp, "model-interp-ns")
	b.ReportMetric(compiled, "model-compiled-ns")
}

// BenchmarkDispatchVirtual times Section 3's packet-transfer dispatch,
// an interface call per hop, on the wall clock. A devirtualized port
// dispatches the same way here; the paper's difference lives in the
// cost model (E8). Discard kills every packet, so each push needs a
// fresh clone, and the clones are made a chunk at a time with the timer
// stopped.
func BenchmarkDispatchVirtual(b *testing.B) {
	cfg := `i :: Idle -> a :: Counter -> bb :: Null -> c :: Counter -> d :: Discard;`
	g, err := lang.ParseRouter(cfg, "dispatch")
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.Build(g, elements.NewRegistry(), core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	head := rt.Find("a")
	p := packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{},
		packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 1, 2, make([]byte, 14))
	clones := make([]*packet.Packet, 4096)
	b.ResetTimer()
	for left := b.N; left > 0; left -= len(clones) {
		b.StopTimer()
		batch := clones[:min(left, len(clones))]
		for i := range batch {
			batch[i] = p.Clone()
		}
		b.StartTimer()
		for _, c := range batch {
			head.Push(0, c)
		}
	}
}

// The optimizers themselves should be fast (§1: "our optimizations run
// quickly"); internal/opt's BenchmarkXformScale times xform.
func BenchmarkToolDevirtualize(b *testing.B) {
	ifs := iprouter.Interfaces(8)
	text := iprouter.Config(ifs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := lang.ParseRouter(text, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.Devirtualize(g, elements.NewRegistry(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToolFastClassifier(b *testing.B) {
	ifs := iprouter.Interfaces(8)
	text := iprouter.Config(ifs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := lang.ParseRouter(text, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := opt.FastClassifier(g, elements.NewRegistry()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures the configuration front end.
func BenchmarkParseIPRouter(b *testing.B) {
	text := iprouter.Config(iprouter.Interfaces(8))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.ParseRouter(text, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// Tool benchmarks for the remaining passes.
func BenchmarkToolAlign(b *testing.B) {
	text := iprouter.Config(iprouter.Interfaces(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := lang.ParseRouter(text, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.AlignPass(g, elements.NewRegistry()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToolUndead(b *testing.B) {
	text := iprouter.Config(iprouter.Interfaces(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := lang.ParseRouter(text, "bench")
		if err != nil {
			b.Fatal(err)
		}
		opt.Undead(g, elements.NewRegistry())
	}
}

// BenchmarkClassifierBuild measures decision-tree construction and
// optimization for the 17-rule firewall.
func BenchmarkClassifierBuild(b *testing.B) {
	rules := iprouter.FirewallRules()
	for i := 0; i < b.N; i++ {
		prog, err := classifier.BuildIPFilterProgram(rules)
		if err != nil {
			b.Fatal(err)
		}
		prog.Optimize()
	}
}

// BenchmarkRouteLookup compares the linear table against the radix trie
// on a 64-route table (the design choice RadixIPLookup exists for).
func routeTable(n int) []string {
	routes := make([]string, 0, n)
	for i := 0; i < n; i++ {
		routes = append(routes, fmt.Sprintf("10.%d.0.0/16 %d", i, i%4))
	}
	return routes
}

func BenchmarkRouteLookupLinear64(b *testing.B) {
	e := &elements.LookupIPRoute{}
	if err := e.Configure(routeTable(64)); err != nil {
		b.Fatal(err)
	}
	a := packet.MakeIP4(10, 63, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Lookup(a); !ok {
			b.Fatal("no route")
		}
	}
}

func BenchmarkRouteLookupRadix64(b *testing.B) {
	e := &elements.RadixIPLookup{}
	if err := e.Configure(routeTable(64)); err != nil {
		b.Fatal(err)
	}
	a := packet.MakeIP4(10, 63, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Lookup(a); !ok {
			b.Fatal("no route")
		}
	}
}
