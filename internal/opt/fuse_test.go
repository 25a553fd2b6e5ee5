package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/packet"
)

// fuseChainConfig is the 2-interface IP router with a classification
// run — IPFilter → IPClassifier → StaticSwitch — spliced into interface
// 0's input path, the shape whole-path fusion exists for.
func fuseChainConfig(ifs []iprouter.Interface, rules []string) string {
	inject := fmt.Sprintf(
		"GetIPAddress(16) -> flt :: IPFilter(%s);\n"+
			"flt [0] -> fc :: IPClassifier(udp, tcp, -);\n"+
			"fc [0] -> sw :: StaticSwitch(0) -> rt;\nfc [1] -> rt;\nfc [2] -> rt;\n",
		strings.Join(rules, ", "))
	return strings.Replace(iprouter.Config(ifs), "GetIPAddress(16) -> rt;", inject, 1)
}

func TestFuseOnFilterChain(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := fuseChainConfig(ifs, []string{"allow udp", "deny all"})
	g, err := lang.ParseRouter(text, "t")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	if err := Fuse(g, reg); err != nil {
		t.Fatal(err)
	}

	// The run collapsed into one generated element at the root, keeping
	// the root's name; the absorbed members are gone.
	flt := g.FindElement("flt")
	if flt == -1 {
		t.Fatalf("run root vanished:\n%s", lang.Unparse(g))
	}
	if !strings.HasPrefix(g.Element(flt).Class, "FusedClassifier_") {
		t.Fatalf("root class = %q, want FusedClassifier_N", g.Element(flt).Class)
	}
	if g.FindElement("fc") != -1 || g.FindElement("sw") != -1 {
		t.Fatalf("absorbed elements survived:\n%s", lang.Unparse(g))
	}

	// Archive carries the generated source, the program list, and the
	// pass report.
	if _, ok := g.Archive["fuse/programs"]; !ok {
		t.Error("no fuse/programs member in archive")
	}
	if _, ok := g.Archive["fuse/"+g.Element(flt).Class+".go"]; !ok {
		t.Errorf("no generated source for %s in archive", g.Element(flt).Class)
	}
	reps, err := Reports(g)
	if err != nil {
		t.Fatal(err)
	}
	var fr *PassReport
	for _, r := range reps {
		if r.Pass == "fuse" {
			fr = r
		}
	}
	if fr == nil {
		t.Fatal("no fuse pass report")
	}
	if fr.RunsFused != 1 || fr.ElementsFused != 3 {
		t.Errorf("report: %d runs / %d elements fused, want 1/3", fr.RunsFused, fr.ElementsFused)
	}
	if fr.DiagramNodes > fr.TreeNodes {
		t.Errorf("diagram grew: %d nodes from %d", fr.DiagramNodes, fr.TreeNodes)
	}

	// Unparse/re-parse round trip holds.
	if _, err := lang.ParseRouter(lang.Unparse(g), "reparse"); err != nil {
		t.Fatalf("fused config does not re-parse: %v\n%s", err, lang.Unparse(g))
	}

	// Semantics: a UDP transit packet passes the filter, the udp branch,
	// and the switch, and is forwarded out eth1.
	r := buildRig(t, g, reg, 2)
	warmARP(r.rt, ifs)
	r.inject("eth0", testPacket(ifs))
	if len(r.devs["eth1"].tx) != 1 {
		t.Fatalf("fused router forwarded %d packets, want 1", len(r.devs["eth1"].tx))
	}
}

func TestFuseArchiveRoundTrip(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := fuseChainConfig(ifs, []string{"allow udp", "deny all"})
	g, err := lang.ParseRouter(text, "t")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	if err := Fuse(g, reg); err != nil {
		t.Fatal(err)
	}
	// Pack, unpack, and rebuild against a fresh registry — the click
	// driver's path through InstallArchive.
	var members []lang.ArchiveMember
	for name, data := range g.Archive {
		members = append(members, lang.ArchiveMember{Name: name, Data: data})
	}
	packed := lang.PackConfig(lang.Unparse(g), members)
	cfg, extra, err := lang.UnpackConfig(packed)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lang.ParseRouter(cfg, "reloaded")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range extra {
		g2.Archive[m.Name] = m.Data
	}
	reg2 := elements.NewRegistry()
	if err := InstallArchive(g2, reg2); err != nil {
		t.Fatal(err)
	}
	r := buildRig(t, g2, reg2, 2)
	warmARP(r.rt, ifs)
	r.inject("eth0", testPacket(ifs))
	if len(r.devs["eth1"].tx) != 1 {
		t.Fatalf("reloaded fused router forwarded %d packets, want 1", len(r.devs["eth1"].tx))
	}
}

// fuseTransitFirewall is the paper's 17-rule firewall with a UDP
// transit admit inserted before the default deny, so the difftest
// traces (UDP between the router's attached hosts) survive the filter
// after traversing most of the ruleset.
func fuseTransitFirewall() []string {
	fw := iprouter.FirewallRules()
	rules := append([]string(nil), fw[:len(fw)-1]...)
	return append(rules, "allow udp", "deny all")
}

// TestFuseAfterArchiveInstall is the regression test for analyzing
// against an incomplete registry: fastclassifier+devirtualize output is
// packed and reloaded, then fusion runs against a fresh registry that
// knows the archive's generated _fcN/_dvN classes only through
// InstallArchive. Fusion must compose those classes, not fail on them.
func TestFuseAfterArchiveInstall(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := fuseChainConfig(ifs, fuseTransitFirewall())
	trace := ipTrace(ifs, 60)
	base := diffRun(t, text, 2, nil, 0, ifs, trace)
	if len(base["eth1"]) == 0 {
		t.Fatal("baseline forwarded nothing")
	}

	g, err := lang.ParseRouter(text, "t")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	if err := applyAllPasses(g, reg); err != nil {
		t.Fatal(err)
	}
	var members []lang.ArchiveMember
	for name, data := range g.Archive {
		members = append(members, lang.ArchiveMember{Name: name, Data: data})
	}
	packed := lang.PackConfig(lang.Unparse(g), members)
	cfg, extra, err := lang.UnpackConfig(packed)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lang.ParseRouter(cfg, "reloaded")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range extra {
		g2.Archive[m.Name] = m.Data
	}
	reg2 := elements.NewRegistry()
	if err := InstallArchive(g2, reg2); err != nil {
		t.Fatal(err)
	}
	if err := Fuse(g2, reg2); err != nil {
		t.Fatalf("fuse after archive install: %v", err)
	}
	rep := fuseReport(t, g2)
	if rep.RunsFused == 0 {
		t.Fatalf("fusion found nothing to fuse in optimized config:\n%s", lang.Unparse(g2))
	}

	devs := map[string]*fakeDevice{}
	env := map[string]interface{}{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("eth%d", i)
		d := &fakeDevice{name: name}
		devs[name] = d
		env["device:"+name] = d
	}
	rt, err := core.Build(g2, reg2, core.BuildOptions{Env: env})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, lang.Unparse(g2))
	}
	warmARP(rt, ifs)
	for _, p := range trace {
		devs["eth0"].rx = append(devs["eth0"].rx, p.Clone())
	}
	rt.RunUntilIdle(100000)
	got := map[string][][]byte{}
	for name, d := range devs {
		seq := make([][]byte, 0, len(d.tx))
		for _, p := range d.tx {
			seq = append(seq, append([]byte(nil), p.Data()...))
		}
		got[name] = seq
	}
	diffCompare(t, "fuse-after-install", base, got)
}

func fuseReport(t *testing.T, g *graph.Router) *PassReport {
	t.Helper()
	reps, err := Reports(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if r.Pass == "fuse" {
			return r
		}
	}
	t.Fatal("no fuse pass report")
	return nil
}

// TestFusePassOrdering: fusion composed with the full optimizer chain
// in either order must preserve behavior packet for packet.
func TestFusePassOrdering(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := fuseChainConfig(ifs, fuseTransitFirewall())
	trace := ipTrace(ifs, 80)
	base := diffRun(t, text, 2, nil, 0, ifs, trace)
	if len(base["eth1"]) == 0 {
		t.Fatal("baseline forwarded nothing")
	}
	orders := []struct {
		name  string
		apply func(g *graph.Router, reg *core.Registry) error
	}{
		{"fuse-first", func(g *graph.Router, reg *core.Registry) error {
			if err := Fuse(g, reg); err != nil {
				return err
			}
			return applyAllPasses(g, reg)
		}},
		{"fuse-last", func(g *graph.Router, reg *core.Registry) error {
			if err := applyAllPasses(g, reg); err != nil {
				return err
			}
			return Fuse(g, reg)
		}},
		{"fuse-mid", func(g *graph.Router, reg *core.Registry) error {
			if err := FastClassifier(g, reg); err != nil {
				return err
			}
			if err := Fuse(g, reg); err != nil {
				return err
			}
			return Devirtualize(g, reg, nil)
		}},
	}
	for _, o := range orders {
		got := diffRun(t, text, 2, o.apply, 0, ifs, trace)
		diffCompare(t, o.name, base, got)
		for _, m := range diffModes {
			got := diffRun(t, text, 2, o.apply, m.burst, ifs, trace)
			diffCompare(t, o.name+"+"+m.name, base, got)
		}
	}
}

// fuseRandomRules generates a rule set with overlapping prefixes,
// shadowed rules, negations, relational port ranges, and TCP-flag
// patterns — the adversarial shapes for decision-diagram construction.
func fuseRandomRules(r *rand.Rand, n int) []string {
	hosts := []string{"10.0.0.2", "10.0.2.2", "10.0.2.9"}
	nets := []string{"10.0.0.0/8", "10.0.2.0/24", "10.0.0.0/30"}
	var rules []string
	for i := 0; i < n; i++ {
		action := []string{"allow", "deny"}[r.Intn(2)]
		var expr string
		switch r.Intn(8) {
		case 0:
			expr = fmt.Sprintf("src host %s && udp && dst port %d", hosts[r.Intn(len(hosts))], 1+r.Intn(4))
		case 1:
			expr = fmt.Sprintf("dst net %s && udp", nets[r.Intn(len(nets))])
		case 2:
			expr = fmt.Sprintf("udp && dst port >= %d", 1+r.Intn(4))
		case 3:
			expr = fmt.Sprintf("udp && src port < %d", 1024+r.Intn(128))
		case 4:
			expr = fmt.Sprintf("not src net %s && udp", nets[r.Intn(len(nets))])
		case 5:
			expr = "tcp syn && not tcp ack"
		case 6:
			expr = "ip frag"
		case 7:
			expr = fmt.Sprintf("host %s || (udp && dst port <= %d)", hosts[r.Intn(len(hosts))], 1+r.Intn(4))
		}
		rules = append(rules, action+" "+expr)
	}
	rules = append(rules, "allow udp")
	return rules
}

// TestFusePropertyEquivalence is the property-based harness from the
// issue: for each seed, build a random classification chain (random
// IPFilter rules, an IPClassifier, a StaticSwitch), pair the fused and
// unfused routers, and assert identical output port and packet bytes
// for the whole trace — in scalar mode and across the batch matrix.
func TestFusePropertyEquivalence(t *testing.T) {
	const nseeds = 8
	npkts := 500
	if testing.Short() {
		npkts = 120
	}
	ifs := iprouter.Interfaces(2)
	for seed := int64(1); seed <= nseeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			text := fuseChainConfig(ifs, fuseRandomRules(r, 2+r.Intn(10)))
			trace := fusePropertyTrace(r, ifs, npkts)
			base := diffRun(t, text, 2, nil, 0, ifs, trace)
			if len(base["eth1"]) == 0 {
				t.Fatalf("seed %d forwarded nothing:\n%s", seed, text)
			}
			fused := diffRun(t, text, 2, func(g *graph.Router, reg *core.Registry) error {
				if err := Fuse(g, reg); err != nil {
					return err
				}
				rep := fuseReport(t, g)
				if rep.RunsFused == 0 {
					return fmt.Errorf("nothing fused")
				}
				return nil
			}, 0, ifs, trace)
			diffCompare(t, "fused", base, fused)
			for _, m := range diffModes {
				got := diffRun(t, text, 2, func(g *graph.Router, reg *core.Registry) error {
					return Fuse(g, reg)
				}, m.burst, ifs, trace)
				diffCompare(t, "fused+"+m.name, base, got)
			}
		})
	}
}

// fusePropertyTrace builds transit UDP packets whose headers are then
// randomly perturbed (protocol, fragment field, ports, source host,
// TCP-flag byte, truncation) so every rule shape in fuseRandomRules is
// exercised, including transport guards on fragments and short packets.
func fusePropertyTrace(r *rand.Rand, ifs []iprouter.Interface, n int) []*packet.Packet {
	ps := make([]*packet.Packet, n)
	for i := range ps {
		payload := make([]byte, 14+r.Intn(32))
		payload[0], payload[1] = byte(i>>8), byte(i)
		p := packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
			ifs[0].HostAddr, ifs[1].HostAddr,
			uint16(1024+r.Intn(256)), uint16(1+r.Intn(6)), payload)
		d := p.Data()
		switch r.Intn(8) {
		case 0:
			d[14+9] = 6 // claim TCP; ports/flags bytes become TCP fields
			d[14+33] = byte(r.Intn(64))
		case 1:
			d[14+6], d[14+7] = 0x20, byte(1+r.Intn(200)) // fragment
		case 2:
			d[14+12+3] = byte(r.Intn(10)) // vary source host
		case 3:
			d[14+9] = byte(r.Intn(30)) // arbitrary protocol
		}
		ps[i] = p
	}
	return ps
}

// fuseRunsConfig is one independent firewall → IPClassifier →
// StaticSwitch chain per entry of ports, chain i switching to port
// ports[i]. Both switch ports lead to the chain's own queue, so chains
// with different ports differ only in the switch's constant.
func fuseRunsConfig(ports ...int) string {
	var b strings.Builder
	for i, port := range ports {
		fmt.Fprintf(&b, "pd%d :: PollDevice(in%d) -> flt%d :: IPFilter(%s) -> fc%d :: IPClassifier(udp, tcp, -);\n",
			i, i, i, iprouter.FirewallConfigArg(), i)
		fmt.Fprintf(&b, "fc%d [0] -> sw%d :: StaticSwitch(%d) -> q%d :: Queue -> td%d :: ToDevice(out%d);\n",
			i, i, port, i, i, i)
		fmt.Fprintf(&b, "sw%d [1] -> q%d;\nfc%d [1] -> q%d;\nfc%d [2] -> Discard;\n", i, i, i, i, i)
	}
	return b.String()
}

// TestFuseSharesOnlyIdenticalRuns: runs that differ only in a switch
// port get two generated classes, identical runs one, and the report's
// node counts are the sums over fusing each run on its own.
func TestFuseSharesOnlyIdenticalRuns(t *testing.T) {
	fuse := func(ports ...int) (*graph.Router, *PassReport) {
		t.Helper()
		g, err := lang.ParseRouter(fuseRunsConfig(ports...), "t")
		if err != nil {
			t.Fatal(err)
		}
		if err := Fuse(g, elements.NewRegistry()); err != nil {
			t.Fatal(err)
		}
		return g, fuseReport(t, g)
	}
	ports := []int{0, 1, 0}
	g, rep := fuse(ports...)
	class := func(name string) string { return g.Element(g.FindElement(name)).Class }
	if class("flt0") != class("flt2") {
		t.Errorf("identical runs got classes %s and %s", class("flt0"), class("flt2"))
	}
	if class("flt0") == class("flt1") {
		t.Errorf("runs switching to different ports share class %s", class("flt0"))
	}
	if rep.ClassesGenerated != 2 || len(rep.Classes) != 2 || rep.RunsFused != 3 || rep.ElementsFused != 9 {
		t.Errorf("report: %d classes generated, %d named, %d runs, %d elements; want 2, 2, 3, 9",
			rep.ClassesGenerated, len(rep.Classes), rep.RunsFused, rep.ElementsFused)
	}
	var tree, diagram int
	for _, p := range ports {
		_, alone := fuse(p)
		tree += alone.TreeNodes
		diagram += alone.DiagramNodes
	}
	if rep.TreeNodes != tree || rep.DiagramNodes != diagram {
		t.Errorf("report counts %d tree / %d diagram nodes, runs fused alone sum to %d / %d",
			rep.TreeNodes, rep.DiagramNodes, tree, diagram)
	}
}
