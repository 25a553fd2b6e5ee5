package opt

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/packet"
)

// flowCachePass is the install pass in diffPasses shape.
func flowCachePass(g *graph.Router, reg *core.Registry) error {
	return InstallFlowCache(g, reg)
}

// flowTrace builds n transit packets cycling over `flows` distinct
// 5-tuples: interface 0's host sending UDP to the other interfaces'
// hosts, one fixed payload size per flow so every packet after a flow's
// first is fast-path eligible.
func flowTrace(ifs []iprouter.Interface, flows, n int) []*packet.Packet {
	out := make([]*packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		f := i % flows
		dst := ifs[1+f%(len(ifs)-1)]
		out = append(out, packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
			ifs[0].HostAddr, dst.HostAddr,
			uint16(2000+f), uint16(7000+f), make([]byte, 18+2*(f%8))))
	}
	return out
}

// zipfTrace draws the flow of each packet from a Zipf(1.1) distribution
// over `flows` flows — the skewed traffic the flow fast path is built
// for (a few elephants, a long tail of mice).
func zipfTrace(ifs []iprouter.Interface, seed int64, flows, n int) []*packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(flows-1))
	out := make([]*packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		f := int(z.Uint64())
		dst := ifs[1+f%(len(ifs)-1)]
		out = append(out, packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
			ifs[0].HostAddr, dst.HostAddr,
			uint16(2000+f), uint16(7000+f), make([]byte, 18+2*(f%8))))
	}
	return out
}

// flowRig is a built router plus its devices, with a handle on the
// FlowCache element when one is installed.
type flowRig struct {
	rt   *core.Router
	devs map[string]*fakeDevice
	fc   *elements.FlowCache
}

func buildFlowRig(t *testing.T, text string, ndev int,
	pass func(*graph.Router, *core.Registry) error, ifs []iprouter.Interface) *flowRig {
	t.Helper()
	g, err := lang.ParseRouter(text, "flowtest")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	reg := elements.NewRegistry()
	if pass != nil {
		if err := pass(g, reg); err != nil {
			t.Fatalf("pass: %v", err)
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
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, lang.Unparse(g))
	}
	if ifs != nil {
		warmARP(rt, ifs)
	}
	r := &flowRig{rt: rt, devs: devs}
	for _, e := range rt.Elements() {
		if fc, ok := e.(*elements.FlowCache); ok {
			r.fc = fc
		}
	}
	return r
}

// send replays a trace into eth0 and runs the router to idle.
func (r *flowRig) send(trace []*packet.Packet) {
	for _, p := range trace {
		r.devs["eth0"].rx = append(r.devs["eth0"].rx, p.Clone())
	}
	r.rt.RunUntilIdle(100000)
}

// write drives a write handler, failing the test on error.
func (r *flowRig) write(t *testing.T, path, value string) {
	t.Helper()
	if err := r.rt.WriteHandler(path, value); err != nil {
		t.Fatalf("write %s %q: %v", path, value, err)
	}
}

// tx snapshots the per-device transmitted byte sequences.
func (r *flowRig) tx() map[string][][]byte {
	out := map[string][][]byte{}
	for name, d := range r.devs {
		seq := make([][]byte, 0, len(d.tx))
		for _, p := range d.tx {
			seq = append(seq, append([]byte(nil), p.Data()...))
		}
		out[name] = seq
	}
	return out
}

// TestFlowCacheInstallPass checks the graph surgery: one FlowCache
// element, one ingress port per device feed, one tap per queue-entering
// edge, a pass report with the counts, and idempotency.
func TestFlowCacheInstallPass(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "iprouter")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	if err := InstallFlowCache(g, reg); err != nil {
		t.Fatal(err)
	}
	count := 0
	var cfg string
	for _, i := range g.LiveIndices() {
		if g.Element(i).Class == "FlowCache" {
			count++
			cfg = g.Element(i).Config
		}
	}
	if count != 1 {
		t.Fatalf("installed %d FlowCache elements, want 1", count)
	}
	// 2 PollDevice feeds; each out queue has two inbound edges (ARPQuerier
	// and ARPResponder), so 4 taps.
	if cfg != "2, 4" {
		t.Errorf("FlowCache config = %q, want \"2, 4\"", cfg)
	}
	reps, err := Reports(g)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range reps {
		if r.Pass == "flowcache" {
			found = true
			if r.FlowIngresses != 2 || r.FlowTaps != 4 {
				t.Errorf("report counts %d/%d, want 2/4", r.FlowIngresses, r.FlowTaps)
			}
		}
	}
	if !found {
		t.Error("no flowcache pass report in archive")
	}
	// Idempotent: a second run must not stack a second cache.
	if err := InstallFlowCache(g, reg); err != nil {
		t.Fatal(err)
	}
	count = 0
	for _, i := range g.LiveIndices() {
		if g.Element(i).Class == "FlowCache" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("re-install stacked caches: %d FlowCache elements", count)
	}
}

// TestFlowCacheHitsAndEquality: repeated-flow traffic through the
// cached IP router must be forwarded byte-for-byte like the uncached
// router, with the bulk of packets taken by the fast path.
func TestFlowCacheHitsAndEquality(t *testing.T) {
	ifs := iprouter.Interfaces(3)
	text := iprouter.Config(ifs)
	trace := flowTrace(ifs, 8, 240)
	base := diffRun(t, text, 3, nil, 0, ifs, trace)
	if len(base["eth1"]) == 0 || len(base["eth2"]) == 0 {
		t.Fatal("baseline forwarded nothing")
	}

	r := buildFlowRig(t, text, 3, flowCachePass, ifs)
	if r.fc == nil {
		t.Fatal("no FlowCache element in the installed router")
	}
	r.send(trace)
	diffCompare(t, "flowcache", base, r.tx())

	if r.fc.Entries() != 8 {
		t.Errorf("cache holds %d entries, want 8", r.fc.Entries())
	}
	// 8 flows, one recording miss each: 232 of 240 packets should hit.
	if r.fc.Hits < 216 {
		t.Errorf("only %d/240 hits; fast path not engaging", r.fc.Hits)
	}
	if r.fc.Uncacheable != 0 {
		t.Errorf("%d flows marked uncacheable on a pure transit trace", r.fc.Uncacheable)
	}
	// Read handlers see the same counters.
	hs, err := r.rt.ReadHandler("flow_cache.hits")
	if err != nil {
		t.Fatalf("flow_cache.hits: %v", err)
	}
	if n, _ := strconv.ParseInt(hs, 10, 64); n != r.fc.Hits {
		t.Errorf("hits handler reads %q, counter is %d", hs, r.fc.Hits)
	}
}

// TestDifferentialFlowCacheModes: cached-vs-uncached equality must hold
// with real cache hits in every execution mode (scalar, batched) and
// stacked on the full optimizer chain.
func TestDifferentialFlowCacheModes(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := iprouter.Config(ifs)
	trace := flowTrace(ifs, 6, 120)
	base := diffRun(t, text, 2, nil, 0, ifs, trace)
	if len(base["eth1"]) == 0 {
		t.Fatal("baseline forwarded nothing")
	}
	allPlusFlow := func(g *graph.Router, reg *core.Registry) error {
		if err := applyAllPasses(g, reg); err != nil {
			return err
		}
		return InstallFlowCache(g, reg)
	}
	got := diffRun(t, text, 2, flowCachePass, 0, ifs, trace)
	diffCompare(t, "flowcache-scalar", base, got)
	got = diffRun(t, text, 2, allPlusFlow, 0, ifs, trace)
	diffCompare(t, "flowcache-allpasses", base, got)
	for _, m := range diffModes {
		got := diffRun(t, text, 2, flowCachePass, m.burst, ifs, trace)
		diffCompare(t, "flowcache-"+m.name, base, got)
		got = diffRun(t, text, 2, allPlusFlow, m.burst, ifs, trace)
		diffCompare(t, "flowcache-allpasses-"+m.name, base, got)
	}
}

// TestFlowCacheGuardInvalidation drives the same traffic and the same
// runtime mutations — route add/remove, ARP table update, queue
// reconfiguration — through a cached and an uncached router. Each
// mutation must take effect on the very next packet of an already-warm
// flow (no stale fast path), which the byte-for-byte comparison
// enforces and the Invalidated counter attributes to the guards.
func TestFlowCacheGuardInvalidation(t *testing.T) {
	ifs := iprouter.Interfaces(3)
	text := iprouter.Config(ifs)
	burst := func() []*packet.Packet {
		var ps []*packet.Packet
		for i := 0; i < 6; i++ {
			ps = append(ps, packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
				ifs[0].HostAddr, ifs[1].HostAddr, 2000, 7000, make([]byte, 20)))
		}
		return ps
	}

	cached := buildFlowRig(t, text, 3, flowCachePass, ifs)
	plain := buildFlowRig(t, text, 3, nil, ifs)
	if cached.fc == nil {
		t.Fatal("no FlowCache element")
	}
	step := func(label string) {
		t.Helper()
		diffCompare(t, label, plain.tx(), cached.tx())
	}

	// Warm the flow: host0 -> host1 leaves on eth1.
	cached.send(burst())
	plain.send(burst())
	step("warm")
	if cached.fc.Hits < 4 {
		t.Fatalf("flow did not warm: %d hits", cached.fc.Hits)
	}
	if n := len(cached.devs["eth1"].tx); n != 6 {
		t.Fatalf("warm flow forwarded %d packets out eth1, want 6", n)
	}

	// A more-specific route moves the flow to interface 2. The cached
	// router must not keep forwarding out eth1 on its stale entry.
	cached.write(t, "rt.add", "10.0.1.2/32 2")
	plain.write(t, "rt.add", "10.0.1.2/32 2")
	cached.send(burst())
	plain.send(burst())
	step("route-add")
	if n := len(cached.devs["eth2"].tx); n != 6 {
		t.Fatalf("redirected flow sent %d packets out eth2, want 6", n)
	}

	// Removing the route moves it back.
	cached.write(t, "rt.remove", "10.0.1.2/32")
	plain.write(t, "rt.remove", "10.0.1.2/32")
	cached.send(burst())
	plain.send(burst())
	step("route-remove")
	if n := len(cached.devs["eth1"].tx); n != 12 {
		t.Fatalf("restored flow: eth1 has %d packets, want 12", n)
	}

	// An ARP update rewrites the next-hop MAC; warm entries recorded the
	// old Ethernet header and must re-record.
	const newMAC = "02:aa:bb:cc:dd:ee"
	cached.write(t, "arpq1.insert", "10.0.1.2 "+newMAC)
	plain.write(t, "arpq1.insert", "10.0.1.2 "+newMAC)
	cached.send(burst())
	plain.send(burst())
	step("arp-update")
	etx := cached.devs["eth1"].tx
	last := etx[len(etx)-1].Data()
	want := [6]byte{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}
	for i := 0; i < 6; i++ {
		if last[i] != want[i] {
			t.Fatalf("egress dst MAC after ARP update = % x, want % x", last[:6], want[:])
		}
	}

	// A queue reconfiguration bumps the config guard.
	cached.write(t, "out1.capacity", "600")
	plain.write(t, "out1.capacity", "600")
	cached.send(burst())
	plain.send(burst())
	step("queue-config")

	// Each of the four mutations should have invalidated the warm entry
	// exactly once on its next arrival.
	if cached.fc.Invalidated < 4 {
		t.Errorf("Invalidated = %d after 4 guarded mutations, want >= 4", cached.fc.Invalidated)
	}
	if cached.fc.Hits < 20 {
		t.Errorf("fast path stopped engaging: %d hits total", cached.fc.Hits)
	}
}

// TestFlowCacheHotswapZipf hot-swaps a cached router to a fresh cached
// build mid-trace under Zipf-distributed flow traffic. The transplanted
// entries are demoted (SwapDemoted accounts for them), every flow
// re-verifies with one slow-path traversal, and the transmitted
// sequences must equal a run that never swapped — zero loss, zero
// divergence.
func TestFlowCacheHotswapZipf(t *testing.T) {
	ifs := iprouter.Interfaces(3)
	text := iprouter.Config(ifs)
	trace := zipfTrace(ifs, 7, 64, 600)
	base := diffRun(t, text, 3, nil, 0, ifs, trace)
	total := 0
	for _, seq := range base {
		total += len(seq)
	}
	if total == 0 {
		t.Fatal("baseline forwarded nothing")
	}
	for _, swapAfter := range []int{3, 10} {
		label := fmt.Sprintf("after%d", swapAfter)
		devs := map[string]*fakeDevice{}
		env := map[string]interface{}{}
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("eth%d", i)
			d := &fakeDevice{name: name}
			devs[name] = d
			env["device:"+name] = d
		}
		build := func() *core.Router {
			g, err := lang.ParseRouter(text, "flowswap")
			if err != nil {
				t.Fatal(err)
			}
			reg := elements.NewRegistry()
			if err := InstallFlowCache(g, reg); err != nil {
				t.Fatal(err)
			}
			rt, err := core.Build(g, reg, core.BuildOptions{Env: env})
			if err != nil {
				t.Fatalf("%s: build: %v", label, err)
			}
			return rt
		}
		rt1 := build()
		warmARP(rt1, ifs)
		for _, p := range trace {
			devs["eth0"].rx = append(devs["eth0"].rx, p.Clone())
		}
		s := core.NewScheduler(rt1)
		for i := 0; i < swapAfter; i++ {
			s.RunRound()
		}
		rt2 := build() // ARP state transplants; do not re-warm
		var err error
		s.SyncDo(func() { err = s.Hotswap(rt2) })
		if err != nil {
			t.Fatalf("%s: hotswap: %v", label, err)
		}
		for rounds := 0; rounds < 100000 && s.RunRound(); rounds++ {
		}
		got := map[string][][]byte{}
		for name, d := range devs {
			seq := make([][]byte, 0, len(d.tx))
			for _, p := range d.tx {
				seq = append(seq, append([]byte(nil), p.Data()...))
			}
			got[name] = seq
		}
		diffCompare(t, label, base, got)
		fc2, _ := rt2.Find("flow_cache").(*elements.FlowCache)
		if fc2 == nil {
			t.Fatalf("%s: replacement router lost its FlowCache", label)
		}
		if swapAfter >= 10 && fc2.SwapDemoted == 0 {
			t.Errorf("%s: no entries transplanted across the swap", label)
		}
		if fc2.Hits == 0 {
			t.Errorf("%s: fast path never re-engaged after the swap", label)
		}
	}
}

// TestAdaptiveFuseSurvives is the regression for the controller's fuse
// blindness: an adapt cycle over an already-fused router must keep the
// generated decision-diagram classes (InstallArchive re-registers
// them), and a hot classification run must make the controller decide
// to fuse in the first place.
func TestAdaptiveFuseSurvives(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	text := fuseChainConfig(ifs, []string{"allow udp", "deny all"})
	trace := flowTrace(ifs, 4, 40)

	// Decision: a hot IPFilter -> IPClassifier run triggers fuse.
	g, err := lang.ParseRouter(text, "t")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdaptive(AdaptiveOptions{MinPackets: 10, ColdSamples: 2})
	d := a.Observe(g, fakeStats(map[string]int64{"flt": 500, "fc": 500}))
	if !d.Fuse {
		t.Fatalf("hot classification run did not trigger fuse: %+v", d)
	}
	ng, nreg, err := Reoptimize(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFusedClass(ng) {
		t.Fatalf("Reoptimize with Fuse decision generated no diagram:\n%s", lang.Unparse(ng))
	}

	// Survival: adapt the fused router with a fuse-less decision; the
	// diagram classes must ride through on the archive, and forwarding
	// must be unchanged.
	fusedRun := diffRunCustom(t, ng, nreg, ifs, trace)
	d2 := Decision{Devirtualize: true, Reasons: []string{"devirtualize: test"}}
	ng2, nreg2, err := Reoptimize(ng, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFusedClass(ng2) {
		t.Fatalf("fused classes lost across adapt cycle:\n%s", lang.Unparse(ng2))
	}
	adaptedRun := diffRunCustom(t, ng2, nreg2, ifs, trace)
	diffCompare(t, "adapted-fused", fusedRun, adaptedRun)
}

// hasFusedClass reports whether a graph still carries a fuse-generated
// element (possibly devirtualize-specialized).
func hasFusedClass(g *graph.Router) bool {
	for _, i := range g.LiveIndices() {
		if generatedFusedClassifier(g.Element(i).Class) {
			return true
		}
	}
	return false
}

// diffRunCustom is diffRun for an already-transformed graph.
func diffRunCustom(t *testing.T, g *graph.Router, reg *core.Registry,
	ifs []iprouter.Interface, trace []*packet.Packet) map[string][][]byte {
	t.Helper()
	devs := map[string]*fakeDevice{}
	env := map[string]interface{}{}
	for i := range ifs {
		name := fmt.Sprintf("eth%d", i)
		d := &fakeDevice{name: name}
		devs[name] = d
		env["device:"+name] = d
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, lang.Unparse(g))
	}
	warmARP(rt, ifs)
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

// FuzzFlowCacheMutations interleaves random flow traffic with random
// write-handler mutations of guarded state (routes, ARP bindings, queue
// capacity) and asserts the cached router stays byte-for-byte
// equivalent to the uncached one throughout.
func FuzzFlowCacheMutations(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		ifs := iprouter.Interfaces(3)
		text := iprouter.Config(ifs)
		cached := buildFlowRig(t, text, 3, flowCachePass, ifs)
		plain := buildFlowRig(t, text, 3, nil, ifs)
		if cached.fc == nil {
			t.Fatal("no FlowCache element")
		}

		mutate := func(path, value string) {
			// Apply to both routers; errors (e.g. removing an absent
			// route) must simply agree, not diverge.
			errC := cached.rt.WriteHandler(path, value)
			errP := plain.rt.WriteHandler(path, value)
			if (errC == nil) != (errP == nil) {
				t.Fatalf("mutation %s %q diverged: cached=%v plain=%v", path, value, errC, errP)
			}
		}
		for op := 0; op < 30; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				// A short burst of one of six flows.
				fl := rng.Intn(6)
				dst := ifs[1+fl%2]
				var ps []*packet.Packet
				for i := 0; i < 1+rng.Intn(3); i++ {
					ps = append(ps, packet.BuildUDP4(ifs[0].HostEth, ifs[0].Ether,
						ifs[0].HostAddr, dst.HostAddr,
						uint16(3000+fl), uint16(9000+fl), make([]byte, 16+4*(fl%4))))
				}
				cached.send(ps)
				plain.send(ps)
			case k < 7:
				host := 1 + rng.Intn(2)
				mutate("rt.add", fmt.Sprintf("10.0.%d.2/32 %d", host, rng.Intn(4)))
			case k < 8:
				host := 1 + rng.Intn(2)
				mutate("rt.remove", fmt.Sprintf("10.0.%d.2/32", host))
			case k < 9:
				host := 1 + rng.Intn(2)
				mac := fmt.Sprintf("02:00:00:00:%02x:%02x", rng.Intn(256), rng.Intn(256))
				mutate(fmt.Sprintf("arpq%d.insert", 1+rng.Intn(2)),
					fmt.Sprintf("10.0.%d.2 %s", host, mac))
			default:
				mutate(fmt.Sprintf("out%d.capacity", rng.Intn(3)),
					strconv.Itoa(200+rng.Intn(800)))
			}
		}
		diffCompare(t, fmt.Sprintf("seed%d", seed), plain.tx(), cached.tx())
	})
}
