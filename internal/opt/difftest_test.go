package opt

// Differential behavior-preservation harness: every optimizer pass, and
// every runtime execution mode (scalar, batched), must leave a router's
// observable behavior untouched — identical per-output-port packet
// sequences for the same input trace. The harness generates random
// push-mode configurations, replays a deterministic trace through the
// unmodified router and through each transformed or batched variant,
// and compares transmitted packets byte for byte. It doubles as the
// correctness oracle for the batch transfer path.

import (
	"bytes"
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

// diffTrace builds the deterministic input trace for one seed: UDP
// packets whose destination-port low byte steers classifiers and whose
// payload carries a sequence number, so output sequences expose both
// misrouting and reordering.
func diffTrace(seed int64, n int) []*packet.Packet {
	r := rand.New(rand.NewSource(seed))
	src := packet.EtherAddr{0, 160, 201, 1, 1, 1}
	dst := packet.EtherAddr{0, 160, 201, 2, 2, 2}
	ps := make([]*packet.Packet, n)
	for i := range ps {
		payload := make([]byte, 14+r.Intn(32))
		payload[0], payload[1] = byte(i>>8), byte(i)
		ps[i] = packet.BuildUDP4(src, dst,
			packet.MakeIP4(10, 0, 0, 2), packet.MakeIP4(10, 0, 2, 2),
			uint16(1024+r.Intn(64)), uint16(r.Intn(3)+1), payload)
	}
	return ps
}

// randomPushConfig generates a random push-mode configuration: a
// PollDevice entry, a random tree of Null/Counter/Paint/Tee/Classifier/
// StaticSwitch stages, and Queue → ToDevice sinks, one device per sink.
// It returns the configuration text and the number of sink devices.
func randomPushConfig(seed int64) (string, int) {
	r := rand.New(rand.NewSource(seed))
	var lines []string
	id := 0
	fresh := func(prefix string) string {
		id++
		return fmt.Sprintf("%s%d", prefix, id)
	}
	type stream struct {
		from string
		port int
	}
	lines = append(lines, "pd :: PollDevice(eth0);")
	open := []stream{{"pd", 0}}
	sinks := 0
	budget := 4 + r.Intn(10)
	for len(open) > 0 {
		s := open[0]
		open = open[1:]
		// Terminate when the budget runs out or when letting every open
		// stream terminate would exceed 8 sinks (devices eth1..eth8).
		if budget <= 0 || sinks+len(open) >= 7 || r.Intn(4) == 0 {
			sinks++
			q, td := fresh("q"), fresh("td")
			lines = append(lines,
				fmt.Sprintf("%s :: Queue; %s :: ToDevice(eth%d);", q, td, sinks),
				fmt.Sprintf("%s [%d] -> %s -> %s;", s.from, s.port, q, td))
			continue
		}
		budget--
		switch r.Intn(5) {
		case 0: // pass-through stage
			n := fresh("n")
			cls := "Null"
			if r.Intn(2) == 0 {
				cls = "Counter"
			}
			lines = append(lines,
				fmt.Sprintf("%s :: %s;", n, cls),
				fmt.Sprintf("%s [%d] -> %s;", s.from, s.port, n))
			open = append(open, stream{n, 0})
		case 1: // Paint
			n := fresh("pt")
			lines = append(lines,
				fmt.Sprintf("%s :: Paint(%d);", n, r.Intn(4)),
				fmt.Sprintf("%s [%d] -> %s;", s.from, s.port, n))
			open = append(open, stream{n, 0})
		case 2: // Tee duplicates the stream
			n := fresh("t")
			lines = append(lines,
				fmt.Sprintf("%s :: Tee;", n),
				fmt.Sprintf("%s [%d] -> %s;", s.from, s.port, n))
			open = append(open, stream{n, 0}, stream{n, 1})
		case 3: // Classifier splits on the UDP destination-port byte
			n := fresh("c")
			lines = append(lines,
				fmt.Sprintf("%s :: Classifier(37/01, 37/02, -);", n),
				fmt.Sprintf("%s [%d] -> %s;", s.from, s.port, n))
			open = append(open, stream{n, 0}, stream{n, 1}, stream{n, 2})
		case 4: // StaticSwitch routes everything one way
			n := fresh("sw")
			lines = append(lines,
				fmt.Sprintf("%s :: StaticSwitch(%d);", n, r.Intn(2)),
				fmt.Sprintf("%s [%d] -> %s;", s.from, s.port, n))
			open = append(open, stream{n, 0}, stream{n, 1})
		}
	}
	return strings.Join(lines, "\n"), sinks
}

// diffPasses are the optimizer passes under differential test.
var diffPasses = []struct {
	name  string
	apply func(g *graph.Router, reg *core.Registry) error
}{
	{"fastclassifier", func(g *graph.Router, reg *core.Registry) error { return FastClassifier(g, reg) }},
	{"fuse", func(g *graph.Router, reg *core.Registry) error { return Fuse(g, reg) }},
	{"devirtualize", func(g *graph.Router, reg *core.Registry) error { return Devirtualize(g, reg, nil) }},
	{"xform", func(g *graph.Router, reg *core.Registry) error {
		pairs, err := ParsePatterns(iprouter.ComboPatterns, "combopatterns")
		if err != nil {
			return err
		}
		Xform(g, pairs)
		return nil
	}},
	{"undead", func(g *graph.Router, reg *core.Registry) error { Undead(g, reg); return nil }},
	{"flowcache", func(g *graph.Router, reg *core.Registry) error { return InstallFlowCache(g, reg) }},
}

// diffRun parses the configuration, optionally applies a pass, builds
// the router over fake devices eth0..eth<ndev-1> with the given burst,
// replays the trace into eth0, runs to idle, and returns each device's
// transmitted payload sequence.
func diffRun(t *testing.T, text string, ndev int,
	pass func(*graph.Router, *core.Registry) error,
	burst int, ifs []iprouter.Interface, trace []*packet.Packet) map[string][][]byte {
	t.Helper()
	g, err := lang.ParseRouter(text, "difftest")
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	reg := elements.NewRegistry()
	if pass != nil {
		if err := pass(g, reg); err != nil {
			t.Fatalf("pass: %v\n%s", err, text)
		}
	}
	devs := map[string]*fakeDevice{}
	env := map[string]interface{}{}
	for i := 0; i < ndev; i++ {
		name := fmt.Sprintf("eth%d", i)
		d := &fakeDevice{name: name}
		devs[name] = d
		env["device:"+name] = d
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env, Burst: burst})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, lang.Unparse(g))
	}
	if ifs != nil {
		warmARP(rt, ifs)
	}
	for _, p := range trace {
		devs["eth0"].rx = append(devs["eth0"].rx, p.Clone())
	}
	rt.RunUntilIdle(100000)
	out := map[string][][]byte{}
	for name, d := range devs {
		seq := make([][]byte, 0, len(d.tx))
		for _, p := range d.tx {
			seq = append(seq, append([]byte(nil), p.Data()...))
		}
		out[name] = seq
	}
	return out
}

// diffCompare asserts two per-device output captures are identical:
// same devices, same packet count per device, same bytes in the same
// order.
func diffCompare(t *testing.T, label string, want, got map[string][][]byte) {
	t.Helper()
	for dev, ws := range want {
		gs := got[dev]
		if len(ws) != len(gs) {
			t.Errorf("%s: %s sent %d packets, want %d", label, dev, len(gs), len(ws))
			continue
		}
		for i := range ws {
			if !bytes.Equal(ws[i], gs[i]) {
				t.Errorf("%s: %s packet %d differs\nwant %x\ngot  %x", label, dev, i, ws[i], gs[i])
				break
			}
		}
	}
}

// diffModes are the runtime execution modes checked against the scalar
// baseline.
var diffModes = []struct {
	name  string
	burst int
}{
	{"batch8", 8},
	{"batch32", 32},
}

// TestDifferentialRandomConfigs replays a deterministic trace through
// random configurations and asserts that every optimizer pass and every
// execution mode preserves per-port output sequences.
func TestDifferentialRandomConfigs(t *testing.T) {
	const nseeds = 12
	const npkts = 60
	for seed := int64(1); seed <= nseeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			text, sinks := randomPushConfig(seed)
			ndev := sinks + 1
			trace := diffTrace(seed, npkts)
			base := diffRun(t, text, ndev, nil, 0, nil, trace)
			total := 0
			for _, seq := range base {
				total += len(seq)
			}
			if total == 0 {
				t.Fatalf("seed %d forwarded nothing:\n%s", seed, text)
			}
			for _, p := range diffPasses {
				got := diffRun(t, text, ndev, p.apply, 0, nil, trace)
				diffCompare(t, p.name, base, got)
			}
			for _, m := range diffModes {
				got := diffRun(t, text, ndev, nil, m.burst, nil, trace)
				diffCompare(t, m.name, base, got)
			}
		})
	}
}

// ipTrace builds transit traffic for the 2-interface IP router: UDP
// packets from interface 0's host to interface 1's host with varied
// ports and payloads.
func ipTrace(ifs []iprouter.Interface, n int) []*packet.Packet {
	r := rand.New(rand.NewSource(99))
	ps := make([]*packet.Packet, n)
	for i := range ps {
		payload := make([]byte, 14+r.Intn(64))
		payload[0], payload[1] = byte(i>>8), byte(i)
		ps[i] = packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
			ifs[0].HostAddr, ifs[1].HostAddr,
			uint16(1024+r.Intn(512)), uint16(1+r.Intn(512)), payload)
	}
	return ps
}

// TestDifferentialIPRouter replays transit traffic through the full
// 2-interface IP router and asserts every optimizer pass and execution
// mode preserves the transmitted packet sequences — this is where
// xform's combo substitutions and fastclassifier's compiled classifiers
// actually fire.
func TestDifferentialIPRouter(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := iprouter.Config(ifs)
	trace := ipTrace(ifs, 80)
	base := diffRun(t, text, 2, nil, 0, ifs, trace)
	if len(base["eth1"]) == 0 {
		t.Fatal("baseline IP router forwarded nothing")
	}
	for _, p := range diffPasses {
		got := diffRun(t, text, 2, p.apply, 0, ifs, trace)
		diffCompare(t, p.name, base, got)
	}
	// All passes together, then each execution mode over that fully
	// optimized router.
	got := diffRun(t, text, 2, applyAllPasses, 0, ifs, trace)
	diffCompare(t, "all", base, got)
	for _, m := range diffModes {
		got := diffRun(t, text, 2, applyAllPasses, m.burst, ifs, trace)
		diffCompare(t, "all+"+m.name, base, got)
	}
}

// applyAllPasses is the full optimizer chain (§8.2 "All"): xform combo
// substitutions, compiled classifiers, devirtualized transfers.
func applyAllPasses(g *graph.Router, reg *core.Registry) error {
	pairs, err := ParsePatterns(iprouter.ComboPatterns, "combopatterns")
	if err != nil {
		return err
	}
	Xform(g, pairs)
	if err := FastClassifier(g, reg); err != nil {
		return err
	}
	return Devirtualize(g, reg, nil)
}

// diffRunSwap replays the trace like diffRun, but starts on the
// unoptimized router, runs swapAfter task rounds mid-trace, hot-swaps to
// the pass-transformed variant of the same configuration (same devices,
// state transplanted), and drains to idle. Output must be packet-for-
// packet identical to a run that never swapped.
func diffRunSwap(t *testing.T, text string, ndev int,
	pass func(*graph.Router, *core.Registry) error,
	swapAfter int, ifs []iprouter.Interface, trace []*packet.Packet) map[string][][]byte {
	t.Helper()
	g1, err := lang.ParseRouter(text, "difftest")
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	devs := map[string]*fakeDevice{}
	env := map[string]interface{}{}
	for i := 0; i < ndev; i++ {
		name := fmt.Sprintf("eth%d", i)
		d := &fakeDevice{name: name}
		devs[name] = d
		env["device:"+name] = d
	}
	rt1, err := core.Build(g1, elements.NewRegistry(), core.BuildOptions{Env: env})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if ifs != nil {
		warmARP(rt1, ifs)
	}
	for _, p := range trace {
		devs["eth0"].rx = append(devs["eth0"].rx, p.Clone())
	}
	s := core.NewScheduler(rt1)
	for i := 0; i < swapAfter; i++ {
		s.RunRound()
	}
	// Build the optimized replacement over the same devices; transplant
	// (not re-warming) must carry the ARP tables and queue contents.
	g2, err := lang.ParseRouter(text, "difftest")
	if err != nil {
		t.Fatal(err)
	}
	reg2 := elements.NewRegistry()
	if pass != nil {
		if err := pass(g2, reg2); err != nil {
			t.Fatalf("pass: %v", err)
		}
	}
	rt2, err := core.Build(g2, reg2, core.BuildOptions{Env: env})
	if err != nil {
		t.Fatalf("build replacement: %v\n%s", err, lang.Unparse(g2))
	}
	s.SyncDo(func() { err = s.Hotswap(rt2) })
	if err != nil {
		t.Fatalf("hotswap: %v", err)
	}
	for rounds := 0; rounds < 100000 && s.RunRound(); rounds++ {
	}
	out := map[string][][]byte{}
	for name, d := range devs {
		seq := make([][]byte, 0, len(d.tx))
		for _, p := range d.tx {
			seq = append(seq, append([]byte(nil), p.Data()...))
		}
		out[name] = seq
	}
	return out
}

// TestDifferentialHotswapIPRouter: hot-swapping the IP router to its
// fully optimized variant mid-trace, at several swap points, must
// preserve the transmitted packet sequences exactly.
func TestDifferentialHotswapIPRouter(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := iprouter.Config(ifs)
	trace := ipTrace(ifs, 80)
	base := diffRun(t, text, 2, nil, 0, ifs, trace)
	if len(base["eth1"]) == 0 {
		t.Fatal("baseline IP router forwarded nothing")
	}
	for _, swapAfter := range []int{1, 3, 10} {
		got := diffRunSwap(t, text, 2, applyAllPasses, swapAfter, ifs, trace)
		diffCompare(t, fmt.Sprintf("hotswap-after%d", swapAfter), base, got)
	}
}

// TestDifferentialHotswapRandomConfigs: mid-trace hot-swap across the
// random configuration corpus, against each optimizer pass.
func TestDifferentialHotswapRandomConfigs(t *testing.T) {
	const npkts = 60
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			text, sinks := randomPushConfig(seed)
			ndev := sinks + 1
			trace := diffTrace(seed, npkts)
			base := diffRun(t, text, ndev, nil, 0, nil, trace)
			for _, p := range diffPasses {
				got := diffRunSwap(t, text, ndev, p.apply, 2, nil, trace)
				diffCompare(t, "hotswap-"+p.name, base, got)
			}
		})
	}
}
