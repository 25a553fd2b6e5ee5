package main

import (
	"bytes"
	"fmt"
	stdio "io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	rio "repro/internal/io"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/packet"
)

// Layer probes time one layer's public functions from outside on
// prebuilt inputs. They run only in traced children, after the
// workload, each for a slice of the run's time, and every number is the
// quiet decile of its samples.

// quietNS calls fn, which does some units of work and returns how many,
// until budget has passed, and returns the quiet-decile ns per unit.
func quietNS(budget time.Duration, fn func() int) float64 {
	samples := make([]float64, 0, 4096)
	end := nanotime() + int64(budget)
	for now := nanotime(); now < end && len(samples) < cap(samples); {
		n := fn()
		t := nanotime()
		if n > 0 {
			samples = append(samples, float64(t-now)/float64(n))
		}
		now = t
	}
	v, _ := quietDecile(samples)
	return v
}

// quietPair is quietNS for two kernels whose difference is the result:
// their samples alternate, so both see the same host.
func quietPair(budget time.Duration, a, b func() int) (float64, float64) {
	var sa, sb []float64
	end := nanotime() + int64(budget)
	for now := nanotime(); now < end && len(sa) < 4096; {
		na := a()
		t1 := nanotime()
		nb := b()
		t2 := nanotime()
		if na > 0 && nb > 0 {
			sa = append(sa, float64(t1-now)/float64(na))
			sb = append(sb, float64(t2-t1)/float64(nb))
		}
		now = t2
	}
	va, _ := quietDecile(sa)
	vb, _ := quietDecile(sb)
	return va, vb
}

// mallocsPer returns heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// chain is a single-path router between two harness devices, for probes
// that need packets to cross an element graph.
type chain struct {
	rt      *core.Router
	in, out *memDev
	frames  [][]byte
}

func newChain(config string, burst int, frame []byte) (*chain, error) {
	s := newSink(2, []expectation{{Dev: 1}}, true)
	c := &chain{in: &memDev{name: "in0", id: 0, sink: s}, out: &memDev{name: "out0", id: 1, sink: s}}
	for i := 0; i < burstFrames; i++ {
		c.frames = append(c.frames, frame)
	}
	var err error
	c.rt, err = core.BuildFromText(config, "probe", elements.NewRegistry(), core.BuildOptions{
		Env:   map[string]interface{}{"device:in0": c.in, "device:out0": c.out},
		Burst: burst,
	})
	return c, err
}

// burst forwards one 32-frame burst and returns the frames delivered.
func (c *chain) burst() int {
	c.in.rx = c.frames
	before := c.out.sink.delivered
	for c.rt.RunTaskRound() {
	}
	return int(c.out.sink.delivered - before)
}

// checkedChain builds a chain and checks that it forwards.
func checkedChain(config string, burst int, frame []byte) (*chain, error) {
	c, err := newChain(config, burst, frame)
	if err != nil {
		return nil, err
	}
	if c.burst() != burstFrames {
		return nil, fmt.Errorf("probe chain lost frames: %s", config)
	}
	return c, nil
}

// chainPairNS is the quiet ns per packet through two configs, sampled
// alternately.
func chainPairNS(budget time.Duration, configA, configB string, frame []byte) (float64, float64, error) {
	a, err := checkedChain(configA, 0, frame)
	if err != nil {
		return 0, 0, err
	}
	b, err := checkedChain(configB, 0, frame)
	if err != nil {
		return 0, 0, err
	}
	va, vb := quietPair(budget, a.burst, b.burst)
	return va, vb, nil
}

// probeFrame is a 64-byte UDP transit frame with tag 0.
func probeFrame(size int) []byte {
	return frameSpec{
		Src: [4]byte{10, 0, 0, 2}, Dst: [4]byte{10, 0, 5, 2},
		Proto: protoUDP, Sport: 1234, Dport: 5678, TTL: 64, Size: size,
	}.build()
}

// A probe times one layer's public functions on prebuilt inputs for
// about slice and adds what it measured to m.
type probe func(m map[string]float64, slice time.Duration) error

// probesFor lists the probes of a workload's traced run. The workload's
// own configuration text goes through lang under every workload; every
// other probe runs under one workload only, the one whose end-to-end
// metrics its layer should move (README.md, "Per-layer metrics"), so no
// number is measured five times over. The device-and-queue floor runs
// under each fwd-* workload because it depends on the transfer path
// (BuildOptions.Burst) the workload uses.
func probesFor(name string, w workload, root string) []probe {
	ps := []probe{probeLang(w.text())}
	switch fw, _ := w.(*fwdWorkload); name {
	case "fwd-base":
		ps = append(ps, probeFloor(fw.burst), probeDispatch, probePacket)
	case "fwd-opt":
		ps = append(ps, probeFloor(fw.burst))
	case "fwd-mixed":
		ps = append(ps, probeFloor(fw.burst), probeClassifier(fw), probeBigPacket)
	case "sock-udp":
		ps = append(ps, probePcap(root))
	case "ctl-churn":
		ps = append(ps, probeShare, probeHotswap)
	}
	return ps
}

// runProbes runs the workload's probes, budget shared equally.
func runProbes(m map[string]float64, ps []probe, budget time.Duration) error {
	for _, p := range ps {
		if err := p(m, budget/time.Duration(len(ps))); err != nil {
			return err
		}
	}
	return nil
}

func probeLang(text string) probe {
	return func(m map[string]float64, slice time.Duration) error {
		g, err := lang.ParseRouter(text, "probe")
		if err != nil {
			return err
		}
		m["lang.parse_us"] = quietNS(slice/2, func() int { lang.ParseRouter(text, "probe"); return 1 }) / 1e3
		m["lang.unparse_us"] = quietNS(slice/2, func() int { lang.Unparse(g); return 1 }) / 1e3
		m["lang.parse_allocs"] = mallocsPer(8, func() { lang.ParseRouter(text, "probe") })
		return nil
	}
}

// probeFloor is the device-and-queue floor, the paper's "Simple":
// Poll -> Queue -> ToDevice on the transfer path the workload uses.
func probeFloor(burst int) probe {
	return func(m map[string]float64, slice time.Duration) error {
		simple := iprouter.SimpleConfig([]iprouter.Interface{{Device: "in0"}, {Device: "out0"}}, []int{1, -1})
		sc, err := checkedChain(simple, burst, probeFrame(64))
		if err != nil {
			return err
		}
		m["elements.simple_ns_per_pkt"] = quietNS(slice, sc.burst)
		return nil
	}
}

// probeDispatch is core's per-hop cost, the slope between Null chains
// of 1 and 17, and LPM as the difference between two paths one lookup
// (and one hop) apart.
func probeDispatch(m map[string]float64, slice time.Duration) error {
	frame := probeFrame(64)
	null := func(k int) string {
		return "PollDevice(in0) -> " + strings.Repeat("Null -> ", k) + "Queue -> ToDevice(out0);"
	}
	t1, t17, err := chainPairNS(slice/2, null(1), null(17), frame)
	if err != nil {
		return err
	}
	m["core.hop_ns"] = (t17 - t1) / 16
	pre := "PollDevice(in0) -> Strip(14) -> CheckIPHeader -> GetIPAddress(16) -> "
	var routes []string
	for i := 0; i < nIfs; i++ {
		routes = append(routes, fmt.Sprintf("10.0.%d.1/32 1, 10.0.%d.0/24 0", i, i))
	}
	with, without, err := chainPairNS(slice/2,
		pre+"rt :: LookupIPRoute("+strings.Join(routes, ", ")+") -> Queue -> ToDevice(out0); rt [1] -> Discard;",
		pre+"Queue -> ToDevice(out0);", frame)
	if err != nil {
		return err
	}
	m["elements.lpm_lookup_ns"] = with - without - m["core.hop_ns"]
	return nil
}

func newKill(f []byte) func() int {
	return func() int {
		for i := 0; i < 256; i++ {
			packet.New(f).Kill()
		}
		return 256
	}
}

// probePacket is packet's allocation cost on 64-byte frames, and what
// the harness devices cost with no router between them.
func probePacket(m map[string]float64, slice time.Duration) error {
	frame := probeFrame(64)
	m["packet.new_kill_allocs"] = mallocsPer(4096, func() { packet.New(frame).Kill() })
	held := packet.New(frame)
	m["packet.clone_kill_ns"] = quietNS(slice/3, func() int {
		for i := 0; i < 256; i++ {
			held.Clone().Kill()
		}
		return 256
	})
	held.Kill()
	s := newSink(2, []expectation{{Dev: 1}}, false)
	in, out := &memDev{id: 0, sink: s}, &memDev{id: 1, sink: s}
	burstOf := make([][]byte, burstFrames)
	for i := range burstOf {
		burstOf[i] = frame
	}
	loop, bare := quietPair(2*slice/3, func() int {
		in.rx = burstOf
		for p := in.RxDequeue(); p != nil; p = in.RxDequeue() {
			out.TxEnqueue(p)
		}
		return burstFrames
	}, newKill(frame))
	m["packet.new_kill_ns"] = bare
	m["bench.harness_ns_per_pkt"] = loop - bare
	return nil
}

func probeBigPacket(m map[string]float64, slice time.Duration) error {
	m["packet.new_kill_1500_ns"] = quietNS(slice, newKill(probeFrame(1500)))
	return nil
}

// firewallDatagrams is what fwd-mixed's first IPFilter sees of ingress
// 0's trace: every frame but the ARP requests, from the IP header on.
func (w *fwdWorkload) firewallDatagrams() [][]byte {
	var ds [][]byte
	for k, f := range w.seq[0] {
		if w.lab[0][k] != labARPRequest {
			ds = append(ds, f[etherLen:])
		}
	}
	return ds
}

// matchSteps is the mean number of decision steps the compiled §4
// ruleset takes over those datagrams: a count that depends only on the
// seed.
func (w *fwdWorkload) matchSteps() (float64, error) {
	pr, err := classifier.BuildIPFilterProgram(iprouter.FirewallRules())
	if err != nil {
		return 0, err
	}
	compiled := classifier.Compile(pr)
	ds := w.firewallDatagrams()
	var steps int
	for _, d := range ds {
		_, _, s := compiled.Match(d)
		steps += s
	}
	return float64(steps) / float64(len(ds)), nil
}

// probeClassifier compiles the §4 ruleset and matches it over
// fwd-mixed's own frames.
func probeClassifier(w *fwdWorkload) probe {
	return func(m map[string]float64, slice time.Duration) error {
		pr, err := classifier.BuildIPFilterProgram(iprouter.FirewallRules())
		if err != nil {
			return err
		}
		m["classifier.compile_us"] = quietNS(slice/2, func() int {
			if pr, err := classifier.BuildIPFilterProgram(iprouter.FirewallRules()); err == nil {
				classifier.Compile(pr)
			}
			return 1
		}) / 1e3
		compiled := classifier.Compile(pr)
		ds := w.firewallDatagrams()
		if len(ds) > 4096 {
			ds = ds[:4096]
		}
		m["classifier.match_ns"] = quietNS(slice/2, func() int {
			for _, d := range ds {
				compiled.Match(d)
			}
			return len(ds)
		})
		return nil
	}
}

// fusedTemplate parses and fuses one ctl-churn tenant template.
func fusedTemplate() (*graph.Router, *core.Registry, error) {
	g, err := lang.ParseRouter(ctlConfig(ctlProbePort), "probe")
	if err != nil {
		return nil, nil, err
	}
	reg := elements.NewRegistry()
	return g, reg, opt.Fuse(g, reg)
}

// probeShare times the cross-tenant sharing pass on one fused tenant
// template.
func probeShare(m map[string]float64, slice time.Duration) error {
	g, reg, err := fusedTemplate()
	if err != nil {
		return err
	}
	m["opt.share_us"] = quietNS(slice, func() int {
		opt.ShareFusedPrograms(g.Clone(), reg, classifier.NewInternTable())
		return 1
	}) / 1e3
	return nil
}

func probeHotswap(m map[string]float64, slice time.Duration) (err error) {
	m["core.hotswap_us"], err = hotswapUS(slice)
	return err
}

// probePcap is the pcap codec over the committed golden trace.
func probePcap(root string) probe {
	return func(m map[string]float64, slice time.Duration) error {
		data, err := os.ReadFile(filepath.Join(root, "testdata", "traces", "ip_mixed.pcap"))
		if err != nil {
			return err
		}
		recs, err := rio.ReadPcap(bytes.NewReader(data))
		if err != nil {
			return err
		}
		m["io.pcap_read_ns_per_frame"] = quietNS(slice/2, func() int {
			r, _ := rio.ReadPcap(bytes.NewReader(data))
			return len(r)
		})
		m["io.pcap_write_ns_per_frame"] = quietNS(slice/2, func() int {
			wr, err := rio.NewWriter(stdio.Discard, 0)
			if err != nil {
				return 0
			}
			for _, rec := range recs {
				wr.WriteRecord(rec)
			}
			return len(recs)
		})
		return nil
	}
}

// hotswapUS times Router.Hotswap of the Figure 1 router onto a freshly
// built copy of itself; building the copy is not timed.
func hotswapUS(budget time.Duration) (float64, error) {
	ifs := iprouter.Interfaces(nIfs)
	text := iprouter.Config(ifs)
	env := map[string]interface{}{}
	s := newSink(nIfs, nil, false)
	for i, itf := range ifs {
		env["device:"+itf.Device] = &memDev{name: itf.Device, id: i, sink: s}
	}
	build := func() (*core.Router, error) {
		return core.BuildFromText(text, "probe", elements.NewRegistry(), core.BuildOptions{Env: env})
	}
	cur, err := build()
	if err != nil {
		return 0, err
	}
	samples := make([]float64, 0, 256)
	for end := nanotime() + int64(budget); nanotime() < end && len(samples) < cap(samples); {
		next, err := build()
		if err != nil {
			return 0, err
		}
		t0 := nanotime()
		err = cur.Hotswap(next)
		samples = append(samples, float64(nanotime()-t0))
		if err != nil {
			return 0, err
		}
		cur = next
	}
	v, _ := quietDecile(samples)
	return v / 1e3, nil
}

// idleRoundNS is the quiet cost of one task round that finds every
// device empty.
func idleRoundNS(budget time.Duration, rt *core.Router) float64 {
	return quietNS(budget, func() int {
		for i := 0; i < 256; i++ {
			rt.RunTaskRound()
		}
		return 256
	})
}
