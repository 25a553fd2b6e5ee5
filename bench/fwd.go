package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/packet"
)

const (
	burstFrames = 32 // frames per offered burst: the fwd-* unit operation
	nIfs        = 8
	nIngress    = nIfs / 2
)

// label is what the generator knows about a frame it built.
type label uint8

const (
	labTransit label = iota
	labTTL1
	labOptions
	labBadChecksum
	labDenied
	labUnresolved
	labFragNeeded
	labARPRequest
	numLabels
)

// labelOutcome is what a host on the wire must see for each label, and
// on which side (true: back out of the ingress interface).
//
// ip-options is expected to die at the firewall: every allow rule of the
// §4 ruleset tests a port, and this runtime's IPFilter (like the paper's)
// only reads ports at IHL 5.
var labelOutcome = [numLabels]struct {
	out       outcome
	toIngress bool
}{
	labTransit:     {outForwarded, false},
	labTTL1:        {outICMPTimeExceeded, true},
	labOptions:     {outDropped, false},
	labBadChecksum: {outDropped, false},
	labDenied:      {outDropped, false},
	labUnresolved:  {outARPRequest, false},
	labFragNeeded:  {outICMPFragNeeded, true},
	labARPRequest:  {outARPReply, true},
}

// fwdWorkload is fwd-base, fwd-opt or fwd-mixed: the Figure 1 IP router
// on harness-owned in-memory devices, with traffic from the seed.
type fwdWorkload struct {
	name   string
	ifs    []iprouter.Interface
	config string
	burst  int // core.BuildOptions.Burst

	// seq[i] is ingress i's cyclic frame sequence and lab[i] the label
	// of each position; expect is the sink's table, indexed by tag.
	seq    [nIngress][][]byte
	lab    [nIngress][]label
	expect []expectation
	first  []byte // a transit frame of ingress 0, for bring-up
	sha    string
}

func (w *fwdWorkload) text() string        { return w.config }
func (w *fwdWorkload) inputSHA256() string { return w.sha }

// mixedInterfaces is the addressing plan of fwd-mixed: ingress networks
// sit inside 172.16.0.0/12 so that rule 3 of the §4 firewall (SMTP from
// 172.16/12) admits the transit flows and ICMP errors have a route back.
func mixedInterfaces() []iprouter.Interface {
	ifs := iprouter.Interfaces(nIfs)
	for i := 0; i < nIngress; i++ {
		ifs[i].Addr = packet.MakeIP4(172, 16, byte(i), 1)
		ifs[i].HostAddr = packet.MakeIP4(172, 16, byte(i), 2)
	}
	return ifs
}

// mixedConfig splices the §4 classification run (17-rule IPFilter, then
// an IPClassifier and a StaticSwitch, as click-bench's fusion experiment
// does for one interface) into every interface's input path.
func mixedConfig(ifs []iprouter.Interface) string {
	text := iprouter.Config(ifs)
	for i := range ifs {
		inject := fmt.Sprintf(
			"GetIPAddress(16) -> flt%d :: IPFilter(%s);\n"+
				"flt%d [0] -> fc%d :: IPClassifier(udp, tcp, -);\n"+
				"fc%d [0] -> sw%d :: StaticSwitch(0) -> rt;\nfc%d [1] -> rt;\nfc%d [2] -> rt;\n",
			i, iprouter.FirewallConfigArg(), i, i, i, i, i, i)
		text = strings.Replace(text, "GetIPAddress(16) -> rt;\n", inject, 1)
	}
	return text
}

func newFwdWorkload(name string, seed int64, sc scale) (*fwdWorkload, error) {
	w := &fwdWorkload{name: name}
	r := rand.New(rand.NewSource(seed))
	ih := newInputHash()
	switch name {
	case "fwd-base":
		w.ifs, w.burst = iprouter.Interfaces(nIfs), 0
		w.config = iprouter.Config(w.ifs)
		w.genTransit(r)
	case "fwd-opt":
		w.ifs, w.burst = iprouter.Interfaces(nIfs), burstFrames
		w.config = iprouter.Config(w.ifs)
		w.genTransit(r)
	case "fwd-mixed":
		w.ifs, w.burst = mixedInterfaces(), burstFrames
		w.config = mixedConfig(w.ifs)
		w.genMixed(r, sc)
	}
	ih.text(w.config)
	for i := range w.seq {
		for k, f := range w.seq[i] {
			ih.frame(f)
			ih.ints(int(w.lab[i][k]))
		}
	}
	w.sha = ih.sum()
	if name == "fwd-opt" {
		// The oracle for the optimised router is the unoptimised one on
		// the same inputs, byte for byte.
		if err := w.expectFromBaseRouter(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func etherOf(e packet.EtherAddr) [6]byte { return [6]byte(e) }
func ip4Of(ip packet.IP4) [4]byte        { return [4]byte(ip) }

// genTransit builds the fwd-base/fwd-opt traffic: 64-byte UDP frames,
// 64 flows per ingress told apart by source port, every one bound for
// the host behind the paired egress interface. The seed picks the ports
// and the order. The expected output is the hand-written reference
// transform.
func (w *fwdWorkload) genTransit(r *rand.Rand) {
	const flows = 64
	for i := 0; i < nIngress; i++ {
		eg := i + nIngress
		ports := r.Perm(1 << 14)[:flows]
		for _, p := range ports {
			spec := frameSpec{
				SrcEth: etherOf(w.ifs[i].HostEth), DstEth: etherOf(w.ifs[i].Ether),
				Src: ip4Of(w.ifs[i].HostAddr), Dst: ip4Of(w.ifs[eg].HostAddr),
				Proto: protoUDP, Sport: uint16(1024 + p), Dport: 5678,
				TTL: 64, Size: 64, Tag: uint32(len(w.expect)),
			}
			f := spec.build()
			w.seq[i] = append(w.seq[i], f)
			w.lab[i] = append(w.lab[i], labTransit)
			w.expect = append(w.expect, expectation{
				Dev:   eg,
				Frame: forwardReference(f, etherOf(w.ifs[eg].Ether), etherOf(w.ifs[eg].HostEth)),
			})
		}
	}
	w.first = w.seq[0][0]
}

// genMixed builds the fwd-mixed trace: per ingress, MixedTrace draws of
// which 90 % are Zipf(1.1) over MixedFlows TCP flows (sizes 64/576/1500
// at 7:4:1, fixed per flow) and 10 % are one of seven labelled
// exceptions. Frames are built once per distinct flow and shared by the
// trace positions that draw it.
func (w *fwdWorkload) genMixed(r *rand.Rand, sc scale) {
	sizes := [12]int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1500}
	for i := 0; i < nIngress; i++ {
		eg := i + nIngress
		base := frameSpec{
			SrcEth: etherOf(w.ifs[i].HostEth), DstEth: etherOf(w.ifs[i].Ether),
			Src: ip4Of(w.ifs[i].HostAddr), Dst: ip4Of(w.ifs[eg].HostAddr),
			Proto: protoTCP, Sport: 40000, Dport: 25, TTL: 64, Size: 64,
		}
		newFrame := func(s frameSpec, dev int) []byte {
			s.Tag = uint32(len(w.expect))
			w.expect = append(w.expect, expectation{Dev: dev})
			return s.build()
		}
		// One frame per exception kind and ingress; the seed decides
		// where in the trace they fall.
		var exc [numLabels][]byte
		for l := labTTL1; l < numLabels; l++ {
			s := base
			switch l {
			case labTTL1:
				s.TTL = 1
			case labOptions:
				s.Options = true
			case labBadChecksum:
				s.BadChecksum = true
			case labDenied:
				s.Proto, s.Dport = protoUDP, 69
			case labUnresolved:
				s.Dst[3] = 77
			case labFragNeeded:
				s.Size, s.DF = etherLen+1600, true
			}
			if l == labARPRequest {
				exc[l] = arpRequestFrame(etherOf(w.ifs[i].HostEth), ip4Of(w.ifs[i].HostAddr), ip4Of(w.ifs[i].Addr))
			} else {
				exc[l] = newFrame(s, eg)
			}
		}
		zipf := rand.NewZipf(r, 1.1, 1, uint64(sc.MixedFlows-1))
		flows := make(map[uint64][]byte)
		for k := 0; k < sc.MixedTrace; k++ {
			if r.Intn(10) == 0 {
				l := labTTL1 + label(r.Intn(int(numLabels-labTTL1)))
				w.seq[i] = append(w.seq[i], exc[l])
				w.lab[i] = append(w.lab[i], l)
				continue
			}
			id := zipf.Uint64()
			f, ok := flows[id]
			if !ok {
				s := base
				// 253 source hosts x 65 536 ports cover the flow space;
				// host .2 is kept for the exception frames.
				s.Src[3] = byte(3 + id%252)
				s.Sport = uint16(1024 + id/252)
				s.Size = sizes[(id*2654435761>>7)%12]
				f = newFrame(s, eg)
				flows[id] = f
			}
			w.seq[i] = append(w.seq[i], f)
			w.lab[i] = append(w.lab[i], labTransit)
		}
	}
	for k, l := range w.lab[0] {
		if l == labTransit {
			w.first = w.seq[0][k]
			break
		}
	}
}

// passes applies the workload's optimiser chain to g, timing each pass.
func (w *fwdWorkload) passes(g *graph.Router, reg *core.Registry, pt *passTimes) error {
	if w.name == "fwd-base" {
		return nil
	}
	pt.count("opt.elements_before", len(g.LiveIndices()))
	if w.name == "fwd-mixed" {
		if err := pt.stage("opt.fuse", func() error { return opt.Fuse(g, reg) }); err != nil {
			return err
		}
	}
	// The paper's "All" chain (§8.2).
	err := pt.stage("opt.xform", func() error {
		pairs, err := opt.ParsePatterns(iprouter.ComboPatterns, "combopatterns")
		if err != nil {
			return err
		}
		pt.count("opt.xform_replacements", opt.Xform(g, pairs))
		return nil
	})
	if err != nil {
		return err
	}
	if err := pt.stage("opt.fastclassifier", func() error { return opt.FastClassifier(g, reg) }); err != nil {
		return err
	}
	if err := pt.stage("opt.devirtualize", func() error { return opt.Devirtualize(g, reg, nil) }); err != nil {
		return err
	}
	pt.stage("opt.undead", func() error { pt.count("opt.undead_removed", opt.Undead(g, reg)); return nil })
	if w.name == "fwd-mixed" {
		if err := pt.stage("opt.flowcache_install", func() error { return opt.InstallFlowCache(g, reg) }); err != nil {
			return err
		}
	}
	pt.count("opt.elements_after", len(g.LiveIndices()))
	if nodes, ok := fusedDiagramNodes(g); ok {
		pt.count("classifier.fdd_nodes", nodes)
	}
	return nil
}

// fusedDiagramNodes reads the size of the decision diagrams from the
// fuse pass's report on g, if the pass ran.
func fusedDiagramNodes(g *graph.Router) (int, bool) {
	reps, err := opt.Reports(g)
	if err != nil {
		return 0, false
	}
	for _, rp := range reps {
		if rp.Pass == "fuse" {
			return rp.DiagramNodes, true
		}
	}
	return 0, false
}

type fwdInst struct {
	w    *fwdWorkload
	rt   *core.Router
	devs [nIfs]*memDev
	sink *sink
	tr   *tracer

	next    int64 // bursts offered
	pos     [nIngress]int
	offered [nIngress][numLabels]int64
}

func (w *fwdWorkload) bringUp(tr *tracer, pt *passTimes) (instance, error) {
	return w.build(w.name != "fwd-base", w.burst, tr, pt)
}

// build is bringUp with the optimiser chain optional, so that fwd-opt
// can build its own unoptimised oracle.
func (w *fwdWorkload) build(optimise bool, burst int, tr *tracer, pt *passTimes) (*fwdInst, error) {
	var g *graph.Router
	err := pt.stage("lang.parse", func() (err error) {
		g, err = lang.ParseRouter(w.config, w.name)
		return err
	})
	if err != nil {
		return nil, err
	}
	reg := elements.NewRegistry()
	if optimise {
		if err := w.passes(g, reg, pt); err != nil {
			return nil, err
		}
	}
	f := &fwdInst{w: w, tr: tr, sink: newSink(nIfs, w.expect, false)}
	env := map[string]interface{}{}
	for i, itf := range w.ifs {
		f.devs[i] = &memDev{name: itf.Device, id: i, sink: f.sink, tr: tr}
		env["device:"+itf.Device] = f.devs[i]
	}
	err = pt.stage("core.build", func() (err error) {
		f.rt, err = core.Build(g, reg, core.BuildOptions{Env: env, Burst: burst})
		return err
	})
	if err != nil {
		return nil, err
	}
	// ARP is pre-resolved for every attached host, as after the first
	// exchange on a live link.
	for _, e := range f.rt.Elements() {
		if aq, ok := e.(*elements.ARPQuerier); ok {
			for _, itf := range w.ifs {
				aq.InsertEntry(itf.HostAddr, itf.HostEth)
			}
		}
	}
	f.devs[0].rx = [][]byte{w.first}
	for r := 0; r < 64 && f.sink.delivered == 0; r++ {
		f.rt.RunTaskRound()
	}
	if f.sink.delivered != 1 || f.sink.bad != 0 {
		return nil, fmt.Errorf("%s: first frame not forwarded (delivered %d, bad %d)", w.name, f.sink.delivered, f.sink.bad)
	}
	*f.sink = *newSink(nIfs, w.expect, false)
	return f, nil
}

// expectFromBaseRouter replaces the expected egress frames with what the
// unoptimised scalar router emits for the same inputs.
func (w *fwdWorkload) expectFromBaseRouter() error {
	ref, err := w.build(false, 0, nil, nil)
	if err != nil {
		return err
	}
	defer ref.close()
	captured := make([]expectation, len(w.expect))
	ref.sink.expect, ref.sink.capture = captured, true
	scratch := newBlockRecorder(1, 1, 1)
	for k := 0; k < nIngress*len(w.seq[0])/burstFrames; k++ {
		ref.step(scratch, 0)
		scratch.reset()
	}
	for tag, e := range captured {
		if e.Frame == nil {
			return fmt.Errorf("%s: unoptimised router emitted nothing for frame %d", w.name, tag)
		}
	}
	w.expect = captured
	return nil
}

func (f *fwdInst) router() *core.Router { return f.rt }
func (f *fwdInst) close()               { f.rt.Close() }

func (f *fwdInst) passSteps() int {
	n := nIngress * len(f.w.seq[0]) / burstFrames
	if n < 256 {
		n = 256
	}
	return n
}

func (f *fwdInst) round() bool {
	if f.tr == nil {
		return f.rt.RunTaskRound()
	}
	f.tr.begin(layCoreRound, nanotime())
	ok := f.rt.RunTaskRound()
	f.tr.end(nanotime())
	return ok
}

// step offers one 32-frame burst to the next ingress in rotation and
// runs task rounds until the router is idle again.
func (f *fwdInst) step(rec *blockRecorder, now int64) (int64, int64) {
	i := int(f.next % nIngress)
	f.next++
	pos := f.pos[i]
	f.devs[i].rx = f.w.seq[i][pos : pos+burstFrames]
	for _, l := range f.w.lab[i][pos : pos+burstFrames] {
		f.offered[i][l]++
	}
	if pos += burstFrames; pos == len(f.w.seq[i]) {
		pos = 0
	}
	f.pos[i] = pos
	before := f.sink.delivered
	f.tr.setOp(f.next)
	f.tr.begin(layBench, now)
	for f.round() {
	}
	end := nanotime()
	f.tr.end(end)
	rec.opDone(end - now)
	return f.sink.delivered - before, end
}

func (f *fwdInst) verify() verdict {
	var v verdict
	var want [nIfs][numOutcomes]int64
	var wantDrops int64
	for i := range f.offered {
		for l, n := range f.offered[i] {
			v.Attempted += n
			lo := labelOutcome[l]
			if lo.out == outDropped {
				wantDrops += n
				continue
			}
			dev := i + nIngress
			if lo.toIngress {
				dev = i
			}
			want[dev][lo.out] += n
			if label(l) == labUnresolved {
				// The datagram itself waits in the ARPQuerier, one deep
				// per address, and is dropped by the next one.
				wantDrops += n
			}
		}
	}
	var arpRequests int64
	for dev := range want {
		for c := range want[dev] {
			got := f.sink.byDev[dev][c]
			v.fail(abs64(got-want[dev][c]), "%s on %s: got %d, labels say %d",
				outcomeNames[c], f.w.ifs[dev].Device, got, want[dev][c])
		}
		arpRequests += f.sink.byDev[dev][outARPRequest]
	}
	v.fail(f.sink.bad, "forwarded frames on the wrong interface or with wrong bytes")
	drops := core.Totals(f.rt.StatsReport()).Drops
	// Conservation, from totals alone: every offered frame is by now an
	// egress frame that is not a generated ARP request, a drop, or one
	// of at most nIngress datagrams waiting for ARP.
	held := v.Attempted - (f.sink.delivered - arpRequests) - drops
	if held < 0 || held > nIngress {
		v.fail(abs64(held), "in != out + drops: offered %d, egress %d (%d ARP requests), drops %d",
			v.Attempted, f.sink.delivered, arpRequests, drops)
	}
	if d := wantDrops - drops; d < 0 || d > nIngress {
		v.fail(abs64(d), "router dropped %d frames, labels say %d", drops, wantDrops)
	}
	return v
}

// readInt reads an integer handler, 0 if absent.
func readInt(rt *core.Router, element, handler string) float64 {
	s, err := rt.ReadHandler(core.HandlerPath(element, handler))
	if err != nil {
		return 0
	}
	var v float64
	fmt.Sscan(strings.TrimSpace(s), &v)
	return v
}

// routerNative reads the layer metrics any router exposes through its
// handlers: the deepest queue, and the flow cache's counters if it has
// one.
func routerNative(rt *core.Router, m map[string]float64) {
	for _, i := range rt.Graph.LiveIndices() {
		e := rt.Graph.Element(i)
		switch {
		case strings.HasSuffix(e.Name, "/q") || e.Class == "Queue":
			if hw := readInt(rt, e.Name, "highwater_length"); hw > m["elements.queue_highwater"] {
				m["elements.queue_highwater"] = hw
			}
		case strings.HasPrefix(e.Class, "FlowCache"):
			hits, misses := readInt(rt, e.Name, "hits"), readInt(rt, e.Name, "misses")
			if hits+misses > 0 {
				m["elements.flowcache_hit_share"] = hits / (hits + misses)
			}
			m["elements.flowcache_entries"] = readInt(rt, e.Name, "entries")
			m["elements.flowcache_invalidated"] = readInt(rt, e.Name, "invalidated")
		}
	}
}

func (f *fwdInst) native(m map[string]float64) { routerNative(f.rt, m) }
