package classifier

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

// ethFrame builds raw Ethernet frame bytes with the given EtherType.
func ethFrame(etherType uint16, tail int) []byte {
	b := make([]byte, 14+tail)
	b[12] = byte(etherType >> 8)
	b[13] = byte(etherType)
	return b
}

func TestClassifierFigure3(t *testing.T) {
	// "Classifier(12/0800, -)": IP packets to output 0, rest to 1.
	pr, err := BuildClassifierProgram([]string{"12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	ip := ethFrame(0x0800, 20)
	arp := ethFrame(0x0806, 20)
	if port, ok, _ := pr.Match(ip); !ok || port != 0 {
		t.Errorf("IP packet -> %d,%v; want 0", port, ok)
	}
	if port, ok, _ := pr.Match(arp); !ok || port != 1 {
		t.Errorf("ARP packet -> %d,%v; want 1", port, ok)
	}
	// The optimized Figure 3 tree is a single node.
	if len(pr.Exprs) != 1 {
		t.Errorf("optimized tree has %d nodes, want 1:\n%s", len(pr.Exprs), pr)
	}
}

func TestClassifierIPRouterConfig(t *testing.T) {
	// The IP router's classifier: ARP requests, ARP replies, IP, other.
	pr, err := BuildClassifierProgram([]string{"12/0806 20/0001", "12/0806 20/0002", "12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	arpReq := ethFrame(0x0806, 28)
	arpReq[20], arpReq[21] = 0x00, 0x01
	arpRep := ethFrame(0x0806, 28)
	arpRep[20], arpRep[21] = 0x00, 0x02
	ip := ethFrame(0x0800, 28)
	other := ethFrame(0x88cc, 28)
	cases := []struct {
		data []byte
		port int
	}{{arpReq, 0}, {arpRep, 1}, {ip, 2}, {other, 3}}
	for i, c := range cases {
		if port, ok, _ := pr.Match(c.data); !ok || port != c.port {
			t.Errorf("case %d -> %d,%v; want %d", i, port, ok, c.port)
		}
	}
}

func TestClassifierWildcardsAndMasks(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"0/08??", "0/00ff%00ff", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	d1 := []byte{0x08, 0x42, 0, 0}
	d2 := []byte{0x13, 0xff, 0, 0}
	d3 := []byte{0x13, 0x00, 0, 0}
	if p, _, _ := pr.Match(d1); p != 0 {
		t.Errorf("wildcard match -> %d", p)
	}
	if p, _, _ := pr.Match(d2); p != 1 {
		t.Errorf("mask match -> %d", p)
	}
	if p, _, _ := pr.Match(d3); p != 2 {
		t.Errorf("fallthrough -> %d", p)
	}
}

func TestClassifierNegation(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"!12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	if p, _, _ := pr.Match(ethFrame(0x0806, 8)); p != 0 {
		t.Errorf("non-IP -> %d, want 0", p)
	}
	if p, _, _ := pr.Match(ethFrame(0x0800, 8)); p != 1 {
		t.Errorf("IP -> %d, want 1", p)
	}
}

func TestClassifierShortPacketFailsTest(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	short := []byte{0, 0, 0, 0, 0, 0, 0, 0} // 8 bytes; test at 12 must fail
	if p, ok, _ := pr.Match(short); !ok || p != 1 {
		t.Errorf("short packet -> %d,%v; want 1 (match-all)", p, ok)
	}
}

func TestClassifierUnmatchedDrops(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"12/0800"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	if _, ok, _ := pr.Match(ethFrame(0x0806, 8)); ok {
		t.Error("unmatched packet did not drop")
	}
}

func TestClassifierBadPatterns(t *testing.T) {
	bad := [][]string{
		{""},
		{"noslash"},
		{"x/0800"},
		{"12/080"},             // odd hex digits
		{"12/08zz"},            // bad hex
		{"12/08%0"},            // mask length mismatch
		{"!12/08000000000000"}, // negation spanning words... 8 bytes crosses words at offset 12
		{},
	}
	for _, pats := range bad {
		if _, err := BuildClassifierProgram(pats); err == nil {
			t.Errorf("BuildClassifierProgram(%q) succeeded", pats)
		}
	}
}

// makeUDP returns raw IP-header-first bytes of a UDP packet.
func makeUDP(src, dst packet.IP4, sport, dport uint16) []byte {
	p := packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{}, src, dst, sport, dport, make([]byte, 14))
	return p.Data()[14:]
}

func TestIPClassifierBasics(t *testing.T) {
	pr, err := BuildIPClassifierProgram([]string{
		"src 10.0.0.2 && tcp && src port 25",
		"udp && dst port 53",
		"icmp",
		"-",
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()

	udpDNS := makeUDP(packet.MakeIP4(10, 0, 0, 9), packet.MakeIP4(8, 8, 8, 8), 4000, 53)
	if p, _, _ := pr.Match(udpDNS); p != 1 {
		t.Errorf("UDP/53 -> %d, want 1", p)
	}
	udpOther := makeUDP(packet.MakeIP4(10, 0, 0, 9), packet.MakeIP4(8, 8, 8, 8), 4000, 54)
	if p, _, _ := pr.Match(udpOther); p != 3 {
		t.Errorf("UDP/54 -> %d, want 3", p)
	}

	// TCP from 10.0.0.2 port 25.
	tcp := makeUDP(packet.MakeIP4(10, 0, 0, 2), packet.MakeIP4(1, 2, 3, 4), 25, 9999)
	tcp[9] = packet.IPProtoTCP
	if p, _, _ := pr.Match(tcp); p != 0 {
		t.Errorf("TCP smtp src -> %d, want 0", p)
	}
	// Same but wrong source address.
	tcp2 := makeUDP(packet.MakeIP4(10, 0, 0, 3), packet.MakeIP4(1, 2, 3, 4), 25, 9999)
	tcp2[9] = packet.IPProtoTCP
	if p, _, _ := pr.Match(tcp2); p != 3 {
		t.Errorf("TCP wrong src -> %d, want 3", p)
	}

	icmp := makeUDP(packet.MakeIP4(9, 9, 9, 9), packet.MakeIP4(1, 2, 3, 4), 0, 0)
	icmp[9] = packet.IPProtoICMP
	if p, _, _ := pr.Match(icmp); p != 2 {
		t.Errorf("ICMP -> %d, want 2", p)
	}
}

func TestIPClassifierNetAndHost(t *testing.T) {
	pr, err := BuildIPClassifierProgram([]string{
		"dst net 18.26.4.0/24",
		"host 10.0.0.1",
		"src net 192.168.0.0 mask 255.255.0.0",
		"-",
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	cases := []struct {
		src, dst packet.IP4
		want     int
	}{
		{packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(18, 26, 4, 99), 0},
		{packet.MakeIP4(10, 0, 0, 1), packet.MakeIP4(2, 2, 2, 2), 1},
		{packet.MakeIP4(2, 2, 2, 2), packet.MakeIP4(10, 0, 0, 1), 1},
		{packet.MakeIP4(192, 168, 7, 7), packet.MakeIP4(2, 2, 2, 2), 2},
		{packet.MakeIP4(192, 169, 7, 7), packet.MakeIP4(2, 2, 2, 2), 3},
	}
	for i, c := range cases {
		d := makeUDP(c.src, c.dst, 1, 2)
		if p, _, _ := pr.Match(d); p != c.want {
			t.Errorf("case %d -> %d, want %d", i, p, c.want)
		}
	}
}

func TestIPClassifierFragmentGuard(t *testing.T) {
	pr, err := BuildIPClassifierProgram([]string{"udp && dst port 53", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	frag := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 999, 53)
	frag[6], frag[7] = 0x00, 0x10 // fragment offset 16*8
	// A fragment's "ports" are payload bytes; the guard must refuse the
	// port rule and fall through to the match-all.
	if p, _, _ := pr.Match(frag); p != 1 {
		t.Errorf("fragment -> %d, want 1", p)
	}
	whole := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 999, 53)
	if p, _, _ := pr.Match(whole); p != 0 {
		t.Errorf("unfragmented -> %d, want 0", p)
	}
}

func TestIPExprParseErrors(t *testing.T) {
	bad := []string{
		"", "bogus", "src host", "src host 1.2.3", "ip proto 999",
		"port 99999", "(tcp", "tcp or", "icmp type banana", "not",
		"src net 1.2.3.0 mask 255.0.255.0",
		"tcp))",
	}
	for _, s := range bad {
		if _, err := ParseIPExpr(s); err == nil {
			t.Errorf("ParseIPExpr(%q) succeeded", s)
		}
	}
}

func TestIPExprOperatorsEquivalent(t *testing.T) {
	variants := []string{
		"src 10.0.0.2 & tcp & src port smtp",
		"src 10.0.0.2 && tcp && src port 25",
		"src host 10.0.0.2 and tcp and src port 25",
		"src 10.0.0.2 tcp src port 25", // juxtaposition
	}
	var ref *Program
	for i, v := range variants {
		pr, err := BuildIPClassifierProgram([]string{v, "-"})
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		pr.Optimize()
		if ref == nil {
			ref = pr
			continue
		}
		if !pr.Equal(ref) {
			t.Errorf("variant %d compiles differently:\n%s\nvs\n%s", i, pr, ref)
		}
	}
}

func TestIPFilterAllowDeny(t *testing.T) {
	pr, err := BuildIPFilterProgram([]string{
		"deny src net 10.0.0.0/8",
		"allow tcp && dst port 80",
		"allow icmp",
		"deny all",
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	if pr.NOutputs != 1 {
		t.Fatalf("NOutputs = %d", pr.NOutputs)
	}
	web := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 5555, 80)
	web[9] = packet.IPProtoTCP
	if _, ok, _ := pr.Match(web); !ok {
		t.Error("allowed packet dropped")
	}
	bad := makeUDP(packet.MakeIP4(10, 9, 9, 9), packet.MakeIP4(2, 2, 2, 2), 5555, 80)
	bad[9] = packet.IPProtoTCP
	if _, ok, _ := pr.Match(bad); ok {
		t.Error("denied source allowed")
	}
	other := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 5555, 81)
	other[9] = packet.IPProtoTCP
	if _, ok, _ := pr.Match(other); ok {
		t.Error("default deny failed")
	}
}

func TestIPFilterBadRules(t *testing.T) {
	bad := [][]string{
		{"permit tcp"},
		{"allow"},
		{""},
		{},
	}
	for _, args := range bad {
		if _, err := BuildIPFilterProgram(args); err == nil {
			t.Errorf("BuildIPFilterProgram(%q) succeeded", args)
		}
	}
}

func TestOptimizeRemovesRedundantTests(t *testing.T) {
	// "tcp && src port 25": the port primitive re-tests (tcp or udp);
	// contraction should remove the re-test of proto given tcp.
	pr, err := BuildIPClassifierProgram([]string{"tcp && src port 25", "-"})
	if err != nil {
		t.Fatal(err)
	}
	before := len(pr.Exprs)
	pr.Optimize()
	after := len(pr.Exprs)
	if after >= before {
		t.Errorf("Optimize did not shrink tree: %d -> %d\n%s", before, after, pr)
	}
	// Count proto tests remaining: at most one.
	protoTests := 0
	for _, e := range pr.Exprs {
		if e.Offset == 8 && e.Mask == 0x00ff0000 {
			protoTests++
		}
	}
	if protoTests > 1 {
		t.Errorf("%d proto tests survive optimization:\n%s", protoTests, pr)
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	patterns := []string{"12/0806 20/0001", "12/0806 20/0002", "12/0800", "!12/9000", "-"}
	raw, err := BuildClassifierProgram(patterns)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := BuildClassifierProgram(patterns)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 14 + rng.Intn(40)
		d := make([]byte, n)
		rng.Read(d)
		// Bias toward interesting ethertypes half the time.
		if rng.Intn(2) == 0 {
			types := []uint16{0x0800, 0x0806, 0x9000}
			ty := types[rng.Intn(len(types))]
			d[12], d[13] = byte(ty>>8), byte(ty)
		}
		p1, ok1, _ := raw.Match(d)
		p2, ok2, _ := opt.Match(d)
		if p1 != p2 || ok1 != ok2 {
			t.Fatalf("optimization changed semantics on %x: (%d,%v) vs (%d,%v)", d, p1, ok1, p2, ok2)
		}
	}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	progs := []*Program{}
	for _, pats := range [][]string{
		{"12/0800", "-"},
		{"12/0806 20/0001", "12/0806 20/0002", "12/0800", "-"},
		{"0/????11", "4/22%0f", "-"},
	} {
		pr, err := BuildClassifierProgram(pats)
		if err != nil {
			t.Fatal(err)
		}
		pr.Optimize()
		progs = append(progs, pr)
	}
	ipPr, err := BuildIPClassifierProgram([]string{"tcp && dst port 80", "udp", "icmp type echo", "-"})
	if err != nil {
		t.Fatal(err)
	}
	ipPr.Optimize()
	progs = append(progs, ipPr)

	rng := rand.New(rand.NewSource(7))
	for pi, pr := range progs {
		comp := Compile(pr)
		for trial := 0; trial < 3000; trial++ {
			n := rng.Intn(64)
			d := make([]byte, n)
			rng.Read(d)
			p1, ok1, s1 := pr.Match(d)
			p2, ok2, s2 := comp.Match(d)
			if p1 != p2 || ok1 != ok2 {
				t.Fatalf("prog %d: compiled diverges on %x: (%d,%v) vs (%d,%v)", pi, d, p1, ok1, p2, ok2)
			}
			if s1 != s2 {
				t.Fatalf("prog %d: step counts differ on %x: %d vs %d", pi, d, s1, s2)
			}
		}
	}
}

func TestCompiledEquivalenceProperty(t *testing.T) {
	pr, err := BuildIPClassifierProgram([]string{"src net 10.0.0.0/8 && udp", "dst port 53", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	comp := Compile(pr)
	f := func(d []byte) bool {
		p1, ok1, _ := pr.Match(d)
		p2, ok2, _ := comp.Match(d)
		return p1 == p2 && ok1 == ok2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestProgramTextRoundTrip(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"12/0806 20/0001", "12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	text := pr.String()
	back, err := ParseProgram(text)
	if err != nil {
		t.Fatalf("ParseProgram failed: %v\n%s", err, text)
	}
	if !back.Equal(pr) {
		t.Errorf("round trip changed program:\n%s\nvs\n%s", text, back)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []*Program{
		{Exprs: []Expr{{Offset: 2, Mask: 1, Value: 1, Yes: Drop, No: Drop}}, Entry: 0, NOutputs: 1},                                                   // unaligned
		{Exprs: []Expr{{Offset: 0, Mask: 1, Value: 2, Yes: Drop, No: Drop}}, Entry: 0, NOutputs: 1},                                                   // value outside mask
		{Exprs: []Expr{{Offset: 0, Mask: 1, Value: 1, Yes: 5, No: Drop}}, Entry: 0, NOutputs: 1},                                                      // out of range
		{Exprs: []Expr{{Offset: 0, Mask: 1, Value: 1, Yes: LeafPort(3), No: Drop}}, Entry: 0, NOutputs: 2},                                            // port out of range
		{Exprs: []Expr{{Offset: 0, Mask: 1, Value: 1, Yes: Drop, No: Drop}, {Offset: 0, Mask: 1, Value: 1, Yes: 0, No: Drop}}, Entry: 1, NOutputs: 1}, // backward edge
	}
	for i, pr := range cases {
		if err := pr.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestDepth(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"12/0806 20/0001", "12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Depth() < 2 {
		t.Errorf("depth = %d", pr.Depth())
	}
	leafOnly := &Program{Entry: LeafPort(0), NOutputs: 1}
	if leafOnly.Depth() != 0 {
		t.Errorf("leaf-only depth = %d", leafOnly.Depth())
	}
}

func TestGenerateGoSource(t *testing.T) {
	pr, err := BuildClassifierProgram([]string{"12/0800", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	src := GenerateGoSource("FastClassifier_a_ac", pr)
	for _, want := range []string{
		"package fastclassifier",
		"type FastClassifier_a_ac struct",
		"step_0:",
		"c.outputs[0](p)",
		"c.outputs[1](p)",
		"be32(data[12:])",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q:\n%s", want, src)
		}
	}
}

func TestTargetEncoding(t *testing.T) {
	f := func(p uint8) bool {
		t := LeafPort(int(p))
		got, ok := t.Port()
		return ok && got == int(p) && t.IsLeaf()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !Drop.IsLeaf() {
		t.Error("Drop not a leaf")
	}
	if _, ok := Drop.Port(); ok {
		t.Error("Drop has a port")
	}
}

func TestIPFilterNumberedPorts(t *testing.T) {
	pr, err := BuildIPFilterProgram([]string{
		"0 tcp && dst port 80",
		"1 udp && dst port 53",
		"2 icmp",
		"deny all",
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	if pr.NOutputs != 3 {
		t.Fatalf("NOutputs = %d, want 3", pr.NOutputs)
	}
	web := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 5555, 80)
	web[9] = packet.IPProtoTCP
	if p, ok, _ := pr.Match(web); !ok || p != 0 {
		t.Errorf("web -> %d,%v", p, ok)
	}
	dns := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 5555, 53)
	if p, ok, _ := pr.Match(dns); !ok || p != 1 {
		t.Errorf("dns -> %d,%v", p, ok)
	}
	icmp := makeUDP(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 0, 0)
	icmp[9] = packet.IPProtoICMP
	if p, ok, _ := pr.Match(icmp); !ok || p != 2 {
		t.Errorf("icmp -> %d,%v", p, ok)
	}
	if _, err := BuildIPFilterProgram([]string{"-3 tcp"}); err == nil {
		t.Error("negative port accepted")
	}
}

func TestTCPFlagPrimitives(t *testing.T) {
	pr, err := BuildIPClassifierProgram([]string{"tcp syn && !(tcp ack)", "tcp ack", "-"})
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	mk := func(flags byte) []byte {
		p := packet.BuildUDP4(packet.EtherAddr{}, packet.EtherAddr{},
			packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2), 1, 2, make([]byte, 14))
		p.Pull(14)
		d := p.Data()
		d[9] = packet.IPProtoTCP
		// Ensure the packet is long enough for a TCP header: pad.
		for len(d) < 40 {
			d = p.Put(4)
		}
		d[33] = flags
		h := packet.IP4Header(d)
		h.UpdateChecksum()
		return d
	}
	if p, _, _ := pr.Match(mk(0x02)); p != 0 { // SYN only
		t.Errorf("SYN -> %d, want 0", p)
	}
	if p, _, _ := pr.Match(mk(0x12)); p != 1 { // SYN+ACK
		t.Errorf("SYN+ACK -> %d, want 1", p)
	}
	if p, _, _ := pr.Match(mk(0x00)); p != 2 {
		t.Errorf("no flags -> %d, want 2", p)
	}
}

// TestValidateChecksSafeLength: a program whose header understates
// safe_length is rejected, because Compiled.Match reads frames of that
// length unchecked; an overstated one only sends more frames down the
// checked path and still classifies them correctly.
func TestValidateChecksSafeLength(t *testing.T) {
	const node = "0  12/08000000%ffff0000  yes->[0]  no->drop\n"
	if _, err := ParseProgram("noutputs 1 entry 0 safe_length 0\n" + node); err == nil {
		t.Error("safe_length 0 accepted for a test at offset 12")
	}
	if _, err := ParseProgram("noutputs 1 entry 0 safe_length 15\n" + node); err == nil {
		t.Error("safe_length 15 accepted for a test at offset 12")
	}
	pr, err := ParseProgram("noutputs 1 entry 0 safe_length 64\n" + node)
	if err != nil {
		t.Fatal(err)
	}
	ip := func(n int) []byte {
		b := make([]byte, n)
		b[12] = 0x08
		return b
	}
	c := Compile(pr)
	for _, data := range [][]byte{{1, 2, 3}, ip(14), ip(16), make([]byte, 16), ip(64), ip(100)} {
		wantPort, wantOK, _ := pr.Match(data)
		port, ok, _ := c.Match(data)
		if port != wantPort || ok != wantOK {
			t.Errorf("%d-byte frame: compiled (%d, %v), interpreter (%d, %v)", len(data), port, ok, wantPort, wantOK)
		}
	}
	if _, ok, _ := c.Match(ip(16)); !ok {
		t.Error("16-byte IP frame dropped")
	}
}

// TestCompileRejectsBackwardEdges: Compile lowers children before their
// parents, so a program Validate rejects for a backward, self or
// out-of-range edge must fail when it is compiled, not when it first
// matches a packet.
func TestCompileRejectsBackwardEdges(t *testing.T) {
	test := Expr{Offset: 12, Mask: 0xffff0000, Value: 0x08000000}
	node := func(yes, no Target) Expr {
		e := test
		e.Yes, e.No = yes, no
		return e
	}
	for _, c := range []struct {
		name  string
		entry Target
		exprs []Expr
	}{
		{"backward", 1, []Expr{node(LeafPort(0), Drop), node(0, Drop)}},
		{"self", 0, []Expr{node(0, Drop)}},
		{"past the end", 0, []Expr{node(LeafPort(0), 2)}},
		{"entry past the end", 1, []Expr{node(LeafPort(0), Drop)}},
	} {
		pr := &Program{NOutputs: 1, Entry: c.entry, Exprs: c.exprs, SafeLength: 16}
		if pr.Validate() == nil {
			t.Fatalf("%s: Validate accepted the program", c.name)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: Compile accepted the program", c.name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "not forward") {
					t.Errorf("%s: Compile panicked with %q, want a forward-edge message", c.name, msg)
				}
			}()
			Compile(pr)
		}()
	}
}
