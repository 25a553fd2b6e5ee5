package elements

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// buildRT assembles a router from config text with the builtin registry.
func buildRT(t *testing.T, config string) *core.Router {
	t.Helper()
	rt, err := core.BuildFromText(config, "test", NewRegistry(), core.BuildOptions{})
	if err != nil {
		t.Fatalf("build failed: %v\nconfig:\n%s", err, config)
	}
	return rt
}

func udpPacket(src, dst packet.IP4) *packet.Packet {
	return packet.BuildUDP4(
		packet.EtherAddr{0, 1, 2, 3, 4, 5}, packet.EtherAddr{6, 7, 8, 9, 10, 11},
		src, dst, 1234, 5678, make([]byte, 14))
}

func TestToDeviceNeedsDevice(t *testing.T) {
	_, err := core.BuildFromText(
		"src :: InfiniteSource(5) -> q :: Queue(3) -> d :: ToDevice(x);",
		"test", NewRegistry(), core.BuildOptions{})
	if err == nil {
		t.Error("ToDevice built without a device in the environment")
	}
}

func TestQueueDirect(t *testing.T) {
	rt := buildRT(t, "i :: Idle -> q :: Queue(2) -> x :: Idle;")
	q := rt.Find("q").(*Queue)
	p1, p2, p3 := udpPacket(packet.IP4{1}, packet.IP4{2}), udpPacket(packet.IP4{1}, packet.IP4{2}), udpPacket(packet.IP4{1}, packet.IP4{2})
	q.Push(0, p1)
	q.Push(0, p2)
	q.Push(0, p3) // over capacity
	if q.Len() != 2 || q.Drops != 1 {
		t.Errorf("len=%d drops=%d", q.Len(), q.Drops)
	}
	if got := q.Pull(0); got != p1 {
		t.Error("FIFO order violated")
	}
	if got := q.Pull(0); got != p2 {
		t.Error("FIFO order violated")
	}
	if q.Pull(0) != nil {
		t.Error("empty queue returned packet")
	}
	if q.HighWater != 2 {
		t.Errorf("high water = %d", q.HighWater)
	}
}

func TestQueueBadConfig(t *testing.T) {
	for _, cfg := range []string{"Queue(0)", "Queue(-5)", "Queue(x)", "Queue(1, 2)"} {
		_, err := core.BuildFromText("i :: Idle -> q :: "+cfg+" -> x :: Idle;", "test", NewRegistry(), core.BuildOptions{})
		if err == nil {
			t.Errorf("%s accepted", cfg)
		}
	}
}

// sink collects packets for assertions. It registers as a test-only
// class.
type sink struct {
	core.Base
	got []*packet.Packet
}

func (s *sink) PushBatch(port int, ps []*packet.Packet) { s.got = append(s.got, ps...) }

// testRegistry returns the builtin registry plus TestSink (push sink
// with any number of inputs).
func testRegistry() *core.Registry {
	reg := NewRegistry()
	reg.Register(&core.Spec{
		Name: "TestSink", Processing: "h/",
		Make: func() core.Element { return &sink{} },
	})
	return reg
}

func buildWith(t *testing.T, config string) *core.Router {
	t.Helper()
	rt, err := core.BuildFromText(config, "test", testRegistry(), core.BuildOptions{})
	if err != nil {
		t.Fatalf("build failed: %v\nconfig:\n%s", err, config)
	}
	return rt
}

func TestClassifierElement(t *testing.T) {
	rt := buildWith(t, `
c :: Classifier(12/0806 20/0001, 12/0806 20/0002, 12/0800, -);
i :: Idle -> c;
c [0] -> s0 :: TestSink;
c [1] -> s1 :: TestSink;
c [2] -> s2 :: TestSink;
c [3] -> s3 :: TestSink;
`)
	c := rt.Find("c").(*Classifier)
	ip := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	c.Push(0, ip)
	if s2 := rt.Find("s2").(*sink); len(s2.got) != 1 {
		t.Error("IP packet not classified to port 2")
	}
	arp := packet.Make(packet.DefaultHeadroom, 42, 0)
	eh, _ := arp.EtherHeader()
	eh.SetType(packet.EtherTypeARP)
	arp.Data()[20], arp.Data()[21] = 0, 1
	c.Push(0, arp)
	if s0 := rt.Find("s0").(*sink); len(s0.got) != 1 {
		t.Error("ARP request not classified to port 0")
	}
}

func TestCheckIPHeaderElement(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> c :: CheckIPHeader(10.0.0.255 10.0.2.255);
c [0] -> good :: TestSink;
c [1] -> bad :: TestSink;
`)
	c := rt.Find("c").(*CheckIPHeader)
	good := rt.Find("good").(*sink)
	bad := rt.Find("bad").(*sink)

	p := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	p.Pull(14) // strip Ethernet
	c.Push(0, p)
	if len(good.got) != 1 {
		t.Fatal("valid header rejected")
	}
	if good.got[0].Anno.NetworkOffset != 0 {
		t.Error("network offset not set")
	}

	// Corrupt checksum.
	p2 := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	p2.Pull(14)
	p2.Data()[10] ^= 0xff
	c.Push(0, p2)
	if len(bad.got) != 1 {
		t.Error("corrupt checksum accepted")
	}

	// Bad source address.
	p3 := udpPacket(packet.MakeIP4(10, 0, 0, 255), packet.MakeIP4(2, 2, 2, 2))
	p3.Pull(14)
	c.Push(0, p3)
	if len(bad.got) != 2 {
		t.Error("bad source accepted")
	}

	// Short packet.
	p4 := packet.Make(0, 10, 0)
	c.Push(0, p4)
	if len(bad.got) != 3 {
		t.Error("short packet accepted")
	}
	if c.Good != 1 || c.Bad != 3 {
		t.Errorf("counters good=%d bad=%d", c.Good, c.Bad)
	}
}

func TestLookupIPRouteLPM(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> r :: LookupIPRoute(18.26.4.0/24 0, 18.26.0.0/16 18.26.4.1 1, 0.0.0.0/0 10.0.0.1 2);
r [0] -> s0 :: TestSink;
r [1] -> s1 :: TestSink;
r [2] -> s2 :: TestSink;
`)
	r := rt.Find("r").(*LookupIPRoute)
	cases := []struct {
		dst  packet.IP4
		port int
		gw   packet.IP4
	}{
		{packet.MakeIP4(18, 26, 4, 9), 0, packet.MakeIP4(18, 26, 4, 9)}, // direct: anno = dst
		{packet.MakeIP4(18, 26, 7, 9), 1, packet.MakeIP4(18, 26, 4, 1)}, // via gateway
		{packet.MakeIP4(99, 9, 9, 9), 2, packet.MakeIP4(10, 0, 0, 1)},   // default route
	}
	sinks := []*sink{rt.Find("s0").(*sink), rt.Find("s1").(*sink), rt.Find("s2").(*sink)}
	for i, c := range cases {
		p := udpPacket(packet.MakeIP4(5, 5, 5, 5), c.dst)
		p.Pull(14)
		p.Anno.NetworkOffset = 0
		p.Anno.DstIPAnno = c.dst
		r.Push(0, p)
		if len(sinks[c.port].got) == 0 {
			t.Fatalf("case %d: no packet on port %d", i, c.port)
		}
		got := sinks[c.port].got[len(sinks[c.port].got)-1]
		if got.Anno.DstIPAnno != c.gw {
			t.Errorf("case %d: next hop = %v, want %v", i, got.Anno.DstIPAnno, c.gw)
		}
	}
}

func TestDecIPTTL(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> d :: DecIPTTL;
d [0] -> ok :: TestSink;
d [1] -> exp :: TestSink;
`)
	d := rt.Find("d").(*DecIPTTL)
	p := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	p.Pull(14)
	p.Anno.NetworkOffset = 0
	d.Push(0, p)
	okSink := rt.Find("ok").(*sink)
	if len(okSink.got) != 1 {
		t.Fatal("packet not forwarded")
	}
	h, _ := okSink.got[0].IPHeader()
	if h.TTL() != 63 {
		t.Errorf("TTL = %d, want 63", h.TTL())
	}
	if !h.ChecksumOK() {
		t.Error("incremental checksum wrong")
	}

	// Expired packet.
	p2 := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	p2.Pull(14)
	p2.Anno.NetworkOffset = 0
	h2, _ := p2.IPHeader()
	h2.SetTTL(1)
	h2.UpdateChecksum()
	d.Push(0, p2)
	if exp := rt.Find("exp").(*sink); len(exp.got) != 1 {
		t.Error("expired packet not diverted")
	}
	if d.Expired != 1 {
		t.Errorf("Expired = %d", d.Expired)
	}
}

func TestARPQuerierFlow(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> [0] a :: ARPQuerier(10.0.0.1, 00:01:02:03:04:05);
j :: Idle -> [1] a;
a -> out :: TestSink;
`)
	a := rt.Find("a").(*ARPQuerier)
	out := rt.Find("out").(*sink)

	// Unknown destination: emits an ARP query and holds the packet.
	p := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(10, 0, 0, 2))
	p.Pull(14)
	p.Anno.NetworkOffset = 0
	p.Anno.DstIPAnno = packet.MakeIP4(10, 0, 0, 2)
	a.Push(0, p)
	if len(out.got) != 1 {
		t.Fatalf("expected 1 query, got %d packets", len(out.got))
	}
	q := out.got[0]
	eh, _ := q.EtherHeader()
	if eh.Type() != packet.EtherTypeARP || !eh.Dst().IsBroadcast() {
		t.Error("query not an ARP broadcast")
	}
	ah, _ := q.ARPHeader(true)
	if ah.Op() != packet.ARPOpRequest || ah.TargetIP() != packet.MakeIP4(10, 0, 0, 2) {
		t.Error("query fields wrong")
	}

	// Deliver the response: held packet is released, encapsulated.
	resp := packet.Make(packet.DefaultHeadroom, packet.EtherHeaderLen+packet.ARPHeaderLen, 0)
	reh, _ := resp.EtherHeader()
	reh.SetType(packet.EtherTypeARP)
	rah, _ := resp.ARPHeader(true)
	rah.InitARP()
	rah.SetOp(packet.ARPOpReply)
	rah.SetSenderIP(packet.MakeIP4(10, 0, 0, 2))
	rah.SetSenderEther(packet.EtherAddr{9, 9, 9, 9, 9, 9})
	a.Push(1, resp)
	if len(out.got) != 2 {
		t.Fatalf("held packet not released; %d packets out", len(out.got))
	}
	rel := out.got[1]
	reh2, _ := rel.EtherHeader()
	if reh2.Type() != packet.EtherTypeIP || reh2.Dst() != (packet.EtherAddr{9, 9, 9, 9, 9, 9}) {
		t.Error("released packet not encapsulated with learned address")
	}

	// Second packet to the same destination: direct encapsulation.
	p2 := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(10, 0, 0, 2))
	p2.Pull(14)
	p2.Anno.NetworkOffset = 0
	p2.Anno.DstIPAnno = packet.MakeIP4(10, 0, 0, 2)
	a.Push(0, p2)
	if len(out.got) != 3 {
		t.Fatal("known destination not forwarded")
	}
	if a.Queries != 1 || a.Responses != 1 {
		t.Errorf("queries=%d responses=%d", a.Queries, a.Responses)
	}
}

func TestARPResponder(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> a :: ARPResponder(10.0.0.1, 00:01:02:03:04:05) -> out :: TestSink;
`)
	a := rt.Find("a").(*ARPResponder)
	out := rt.Find("out").(*sink)

	req := packet.Make(packet.DefaultHeadroom, packet.EtherHeaderLen+packet.ARPHeaderLen, 0)
	eh, _ := req.EtherHeader()
	eh.SetType(packet.EtherTypeARP)
	ah, _ := req.ARPHeader(true)
	ah.InitARP()
	ah.SetOp(packet.ARPOpRequest)
	ah.SetSenderIP(packet.MakeIP4(10, 0, 0, 2))
	ah.SetSenderEther(packet.EtherAddr{7, 7, 7, 7, 7, 7})
	ah.SetTargetIP(packet.MakeIP4(10, 0, 0, 1))
	a.Push(0, req)
	if len(out.got) != 1 {
		t.Fatal("no reply")
	}
	rh, _ := out.got[0].ARPHeader(true)
	if rh.Op() != packet.ARPOpReply || rh.SenderIP() != packet.MakeIP4(10, 0, 0, 1) {
		t.Error("reply fields wrong")
	}
	if rh.TargetEther() != (packet.EtherAddr{7, 7, 7, 7, 7, 7}) {
		t.Error("reply not addressed to requester")
	}

	// Request for someone else: dropped.
	req2 := packet.Make(packet.DefaultHeadroom, packet.EtherHeaderLen+packet.ARPHeaderLen, 0)
	ah2, _ := req2.ARPHeader(true)
	ah2.InitARP()
	ah2.SetOp(packet.ARPOpRequest)
	ah2.SetTargetIP(packet.MakeIP4(10, 0, 0, 99))
	a.Push(0, req2)
	if len(out.got) != 1 {
		t.Error("reply sent for foreign address")
	}
}

func TestPaintAndCheckPaint(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> p :: Paint(3) -> cp :: CheckPaint(3);
cp [0] -> fwd :: TestSink;
cp [1] -> redir :: TestSink;
`)
	p := rt.Find("p").(*Paint)
	fwd := rt.Find("fwd").(*sink)
	redir := rt.Find("redir").(*sink)
	pkt := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	p.Push(0, pkt)
	if len(fwd.got) != 1 || len(redir.got) != 1 {
		t.Errorf("fwd=%d redir=%d; CheckPaint must clone to output 1 and forward", len(fwd.got), len(redir.got))
	}

	// Different paint: no redirect.
	cp := rt.Find("cp").(*CheckPaint)
	pkt2 := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	pkt2.Anno.Paint = 5
	cp.Push(0, pkt2)
	if len(fwd.got) != 2 || len(redir.got) != 1 {
		t.Error("unpainted packet diverted")
	}
}

func TestStripAndEtherEncap(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> s :: Strip(14) -> e :: EtherEncap(0800, 00:01:02:03:04:05, 06:07:08:09:0a:0b) -> out :: TestSink;
`)
	s := rt.Find("s").(*Strip)
	out := rt.Find("out").(*sink)
	pkt := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	n := pkt.Len()
	s.Push(0, pkt)
	if len(out.got) != 1 {
		t.Fatal("packet lost")
	}
	got := out.got[0]
	if got.Len() != n {
		t.Errorf("length changed: %d -> %d", n, got.Len())
	}
	eh, _ := got.EtherHeader()
	if eh.Type() != packet.EtherTypeIP || eh.Src() != (packet.EtherAddr{0, 1, 2, 3, 4, 5}) {
		t.Error("new header wrong")
	}
}

func TestIPFragmenter(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> f :: IPFragmenter(576);
f [0] -> out :: TestSink;
f [1] -> df :: TestSink;
`)
	f := rt.Find("f").(*IPFragmenter)
	out := rt.Find("out").(*sink)

	big := packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{},
		packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 1, 2, make([]byte, 1400))
	big.Pull(14)
	big.Anno.NetworkOffset = 0
	f.Push(0, big)
	if len(out.got) < 3 {
		t.Fatalf("expected >= 3 fragments, got %d", len(out.got))
	}
	total := 0
	for i, fr := range out.got {
		h, ok := fr.IPHeader()
		if !ok {
			t.Fatalf("fragment %d has no IP header", i)
		}
		if !h.ChecksumOK() {
			t.Errorf("fragment %d checksum bad", i)
		}
		if fr.Len() > 576 {
			t.Errorf("fragment %d exceeds MTU: %d", i, fr.Len())
		}
		total += fr.Len() - h.HeaderLen()
		if i < len(out.got)-1 && !h.MoreFragments() {
			t.Errorf("fragment %d missing MF", i)
		}
		if i == len(out.got)-1 && h.MoreFragments() {
			t.Error("last fragment has MF set")
		}
	}
	if total != 1400+8 { // UDP header + payload
		t.Errorf("reassembled payload = %d bytes, want %d", total, 1408)
	}

	// DF packet to output 1.
	dfp := packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{},
		packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 1, 2, make([]byte, 1400))
	dfp.Pull(14)
	dfp.Anno.NetworkOffset = 0
	h, _ := dfp.IPHeader()
	h.SetFragOff(0x4000)
	h.UpdateChecksum()
	f.Push(0, dfp)
	if dfs := rt.Find("df").(*sink); len(dfs.got) != 1 {
		t.Error("DF packet not diverted")
	}
}

func TestICMPError(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> e :: ICMPError(10.0.0.1, timeexceeded, 0) -> out :: TestSink;
`)
	e := rt.Find("e").(*ICMPError)
	out := rt.Find("out").(*sink)
	p := udpPacket(packet.MakeIP4(5, 5, 5, 5), packet.MakeIP4(6, 6, 6, 6))
	p.Pull(14)
	p.Anno.NetworkOffset = 0
	e.Push(0, p)
	if len(out.got) != 1 {
		t.Fatal("no error packet")
	}
	ep := out.got[0]
	h, _ := ep.IPHeader()
	if h.Proto() != packet.IPProtoICMP || h.Dst() != packet.MakeIP4(5, 5, 5, 5) {
		t.Error("error packet addressing wrong")
	}
	if !ep.Anno.FixIPSrc {
		t.Error("FixIPSrc annotation not set")
	}
	icmp := ep.Data()[20:]
	if icmp[0] != packet.ICMPTimeExceeded {
		t.Errorf("type = %d", icmp[0])
	}
	if packet.InternetChecksum(icmp) != 0 {
		t.Error("ICMP checksum bad")
	}

	// ICMP-about-ICMP suppressed.
	p2 := udpPacket(packet.MakeIP4(5, 5, 5, 5), packet.MakeIP4(6, 6, 6, 6))
	p2.Pull(14)
	p2.Anno.NetworkOffset = 0
	h2, _ := p2.IPHeader()
	h2.SetProto(packet.IPProtoICMP)
	h2.UpdateChecksum()
	e.Push(0, p2)
	if len(out.got) != 1 {
		t.Error("generated error about ICMP")
	}
}

func TestTeeClones(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> t :: Tee;
t [0] -> a :: TestSink;
t [1] -> b :: TestSink;
t [2] -> c :: TestSink;
`)
	te := rt.Find("t").(*Tee)
	pkt := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2))
	te.Push(0, pkt)
	a, b, c := rt.Find("a").(*sink), rt.Find("b").(*sink), rt.Find("c").(*sink)
	if len(a.got) != 1 || len(b.got) != 1 || len(c.got) != 1 {
		t.Fatal("Tee did not clone to all outputs")
	}
	// Writing to one clone must not affect the others.
	a.got[0].WritableData()[0] = 0xEE
	if b.got[0].Data()[0] == 0xEE {
		t.Error("clones share mutable data")
	}
}

func TestStaticSwitch(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> sw :: StaticSwitch(1);
sw [0] -> a :: TestSink;
sw [1] -> b :: TestSink;
`)
	sw := rt.Find("sw").(*StaticSwitch)
	sw.Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
	if b := rt.Find("b").(*sink); len(b.got) != 1 {
		t.Error("StaticSwitch(1) did not route to port 1")
	}
	if a := rt.Find("a").(*sink); len(a.got) != 0 {
		t.Error("StaticSwitch leaked to port 0")
	}
}

func TestIPInputComboMatchesComponents(t *testing.T) {
	// The combo must behave exactly like Paint -> Strip -> CheckIPHeader
	// -> GetIPAddress.
	general := buildWith(t, `
i :: Idle -> p :: Paint(1) -> Strip(14) -> c :: CheckIPHeader() -> g :: GetIPAddress(16) -> out :: TestSink;
c [1] -> bad :: TestSink;
`)
	combo := buildWith(t, `
i :: Idle -> ic :: IPInputCombo(1, , 16);
ic [0] -> out :: TestSink;
ic [1] -> bad :: TestSink;
`)
	drive := func(rt *core.Router, entry string, pkt *packet.Packet) (outp, badp []*packet.Packet) {
		rt.Find(entry).(core.Element).Push(0, pkt)
		return rt.Find("out").(*sink).got, rt.Find("bad").(*sink).got
	}
	mk := func() *packet.Packet {
		return udpPacket(packet.MakeIP4(3, 3, 3, 3), packet.MakeIP4(4, 4, 4, 4))
	}
	o1, b1 := drive(general, "p", mk())
	o2, b2 := drive(combo, "ic", mk())
	if len(o1) != 1 || len(o2) != 1 || len(b1) != 0 || len(b2) != 0 {
		t.Fatalf("outcomes differ: general %d/%d combo %d/%d", len(o1), len(b1), len(o2), len(b2))
	}
	g, c := o1[0], o2[0]
	if g.Len() != c.Len() {
		t.Errorf("lengths differ: %d vs %d", g.Len(), c.Len())
	}
	if g.Anno.Paint != c.Anno.Paint || g.Anno.DstIPAnno != c.Anno.DstIPAnno {
		t.Errorf("annotations differ: %+v vs %+v", g.Anno, c.Anno)
	}

	// Bad packet handling equivalence.
	mkBad := func() *packet.Packet {
		p := mk()
		p.Data()[24] ^= 0xff // corrupt IP checksum
		return p
	}
	_, b1 = drive(general, "p", mkBad())
	_, b2 = drive(combo, "ic", mkBad())
	if len(b1) != 1 || len(b2) != 1 {
		t.Errorf("bad-packet outcomes differ: %d vs %d", len(b1), len(b2))
	}
}

func TestIPOutputComboMatchesComponents(t *testing.T) {
	general := buildWith(t, `
i :: Idle -> db :: DropBroadcasts -> cp :: CheckPaint(1) -> gio :: IPGWOptions(10.0.0.1) -> fs :: FixIPSrc(10.0.0.1) -> dt :: DecIPTTL -> fr :: IPFragmenter(1500) -> out :: TestSink;
cp [1] -> redir :: TestSink;
gio [1] -> opt :: TestSink;
dt [1] -> ttl :: TestSink;
fr [1] -> frag :: TestSink;
`)
	combo := buildWith(t, `
i :: Idle -> oc :: IPOutputCombo(1, 10.0.0.1, 1500);
oc [0] -> out :: TestSink;
oc [1] -> redir :: TestSink;
oc [2] -> opt :: TestSink;
oc [3] -> ttl :: TestSink;
oc [4] -> frag :: TestSink;
`)
	type outcome struct{ out, redir, opt, ttl, frag int }
	drive := func(rt *core.Router, entry string, pkt *packet.Packet) outcome {
		rt.Find(entry).(core.Element).Push(0, pkt)
		g := func(n string) int { return len(rt.Find(n).(*sink).got) }
		return outcome{g("out"), g("redir"), g("opt"), g("ttl"), g("frag")}
	}
	mk := func(mut func(*packet.Packet)) func() *packet.Packet {
		return func() *packet.Packet {
			p := udpPacket(packet.MakeIP4(3, 3, 3, 3), packet.MakeIP4(4, 4, 4, 4))
			p.Pull(14)
			p.Anno.NetworkOffset = 0
			if mut != nil {
				mut(p)
			}
			return p
		}
	}
	cases := []struct {
		name string
		mk   func() *packet.Packet
	}{
		{"normal", mk(nil)},
		{"painted", mk(func(p *packet.Packet) { p.Anno.Paint = 1 })},
		{"broadcast", mk(func(p *packet.Packet) { p.Anno.MACBroadcast = true })},
		{"expired", mk(func(p *packet.Packet) {
			h, _ := p.IPHeader()
			h.SetTTL(1)
			h.UpdateChecksum()
		})},
		{"fixsrc", mk(func(p *packet.Packet) { p.Anno.FixIPSrc = true })},
	}
	for _, c := range cases {
		g := drive(general, "db", c.mk())
		co := drive(combo, "oc", c.mk())
		if g != co {
			t.Errorf("%s: outcomes differ: general %+v combo %+v", c.name, g, co)
		}
	}
	// TTL decrement equivalence on the forwarded packet.
	gp := general.Find("out").(*sink).got
	cp := combo.Find("out").(*sink).got
	if len(gp) > 0 && len(cp) > 0 {
		h1, _ := gp[0].IPHeader()
		h2, _ := cp[0].IPHeader()
		if h1.TTL() != h2.TTL() {
			t.Errorf("TTL differs: %d vs %d", h1.TTL(), h2.TTL())
		}
		if !h2.ChecksumOK() {
			t.Error("combo checksum bad")
		}
	}
}

func TestAlignElement(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> a :: Align(4, 2) -> out :: TestSink;
`)
	a := rt.Find("a").(*Align)
	p := packet.Make(13, 20, 0) // offset 13 % 4 = 1
	a.Push(0, p)
	out := rt.Find("out").(*sink)
	if out.got[0].AlignOffset(4) != 2 {
		t.Errorf("alignment = %d, want 2", out.got[0].AlignOffset(4))
	}
	if a.Copies != 1 {
		t.Errorf("Copies = %d", a.Copies)
	}
	// Already aligned: no copy.
	p2 := packet.Make(14, 20, 0)
	a.Push(0, p2)
	if a.Copies != 1 {
		t.Error("unnecessary copy")
	}
}

func TestHostEtherFilter(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> f :: HostEtherFilter(00:01:02:03:04:05);
f [0] -> mine :: TestSink;
f [1] -> other :: TestSink;
`)
	f := rt.Find("f").(*HostEtherFilter)
	mine := rt.Find("mine").(*sink)
	other := rt.Find("other").(*sink)

	forUs := udpPacket(packet.IP4{1}, packet.IP4{2})
	eh, _ := forUs.EtherHeader()
	eh.SetDst(packet.EtherAddr{0, 1, 2, 3, 4, 5})
	f.Push(0, forUs)
	if len(mine.got) != 1 {
		t.Error("our packet filtered")
	}

	bcast := udpPacket(packet.IP4{1}, packet.IP4{2})
	eh2, _ := bcast.EtherHeader()
	eh2.SetDst(packet.BroadcastEther)
	f.Push(0, bcast)
	if len(mine.got) != 2 || !mine.got[1].Anno.MACBroadcast {
		t.Error("broadcast not accepted/annotated")
	}

	foreign := udpPacket(packet.IP4{1}, packet.IP4{2})
	eh3, _ := foreign.EtherHeader()
	eh3.SetDst(packet.EtherAddr{0x02, 9, 9, 9, 9, 9})
	f.Push(0, foreign)
	if len(other.got) != 1 {
		t.Error("foreign packet not diverted")
	}
}

func TestDropBroadcasts(t *testing.T) {
	rt := buildWith(t, `i :: Idle -> d :: DropBroadcasts -> out :: TestSink;`)
	d := rt.Find("d").(*DropBroadcasts)
	p := udpPacket(packet.IP4{1}, packet.IP4{2})
	p.Anno.MACBroadcast = true
	d.Push(0, p)
	if len(rt.Find("out").(*sink).got) != 0 || d.Drops != 1 {
		t.Error("broadcast forwarded")
	}
	d.Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
	if len(rt.Find("out").(*sink).got) != 1 {
		t.Error("unicast dropped")
	}
}

func TestREDDropsUnderLoad(t *testing.T) {
	rt := buildWith(t, `
i :: Idle -> r :: RED(2, 10, 1000) -> q :: Queue(100) -> x :: Idle;
`)
	r := rt.Find("r").(*RED)
	for i := 0; i < 50; i++ {
		r.Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
	}
	q := rt.Find("q").(*Queue)
	if r.Drops == 0 {
		t.Error("RED never dropped despite full queue")
	}
	if q.Len() >= 50 {
		t.Error("queue absorbed everything")
	}
}

func TestREDPassesWhenBelowThreshold(t *testing.T) {
	rt := buildWith(t, `i :: Idle -> r :: RED(5, 10, 1000) -> q :: Queue(100) -> x :: Idle;`)
	r := rt.Find("r").(*RED)
	for i := 0; i < 4; i++ {
		r.Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
	}
	if r.Drops != 0 {
		t.Errorf("RED dropped %d below min threshold", r.Drops)
	}
}

func TestInfiniteSourceLimit(t *testing.T) {
	rt := buildWith(t, `s :: InfiniteSource(3, 2) -> out :: TestSink;`)
	s := rt.Find("s").(*InfiniteSource)
	for i := 0; i < 5; i++ {
		s.RunTask()
	}
	if got := len(rt.Find("out").(*sink).got); got != 3 {
		t.Errorf("emitted %d packets, want 3", got)
	}
}

func TestCostModelCharges(t *testing.T) {
	cpu := simcpu.New(simcpu.P0)
	rt, err := core.BuildFromText(
		`s :: InfiniteSource(1) -> c :: Counter -> Discard;`,
		"test", NewRegistry(), core.BuildOptions{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	rt.RunUntilIdle(10)
	if cpu.TotalCycles() == 0 {
		t.Error("no cycles charged")
	}
	if cpu.Calls == 0 {
		t.Error("no indirect calls charged")
	}
}

func TestUnknownClassRejected(t *testing.T) {
	_, err := core.BuildFromText("x :: Bogus -> Discard;", "test", NewRegistry(), core.BuildOptions{})
	if err == nil {
		t.Error("unknown class accepted")
	}
}

func TestPushPullConflictRejected(t *testing.T) {
	// InfiniteSource(push) directly into ToDevice(pull) must fail the
	// processing check.
	_, err := core.BuildFromText("s :: InfiniteSource(1) -> d :: ToDevice(x);", "test", NewRegistry(), core.BuildOptions{})
	if err == nil {
		t.Error("push->pull conflict accepted")
	}
}

func TestPortCountRejected(t *testing.T) {
	// Queue with two outputs.
	_, err := core.BuildFromText(`
i :: Idle -> q :: Queue;
q [0] -> ToDevice(a);
q [1] -> ToDevice(b);`, "test", NewRegistry(), core.BuildOptions{})
	if err == nil {
		t.Error("Queue with 2 outputs accepted")
	}
}
