package classifier

import (
	"fmt"
	"math/rand"
	"testing"
)

// randFDDPacket builds a plausible IP-header-first packet with
// randomized classification-relevant fields (protocol, fragment bits,
// addresses, ports, TCP flags) and occasional short lengths so the
// checked paths run too.
func randFDDPacket(r *rand.Rand) []byte {
	n := 40 + r.Intn(24)
	switch r.Intn(8) {
	case 0:
		n = r.Intn(20) // truncated header
	case 1:
		n = 20 + r.Intn(16) // header only, short transport
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	if n > 0 {
		data[0] = 0x45 // usually IHL 5
		if r.Intn(4) == 0 {
			data[0] = byte(0x40 | (5 + r.Intn(3)))
		}
	}
	if n > 9 {
		data[9] = []byte{6, 17, 1, 6, 17, byte(r.Intn(256))}[r.Intn(6)]
	}
	if n > 7 {
		if r.Intn(2) == 0 {
			data[6] &= 0xc0 // not a fragment
			data[7] = 0
		}
	}
	if n > 15 && r.Intn(2) == 0 {
		copy(data[12:16], []byte{10, 0, byte(r.Intn(4)), byte(1 + r.Intn(4))})
	}
	if n > 23 && r.Intn(2) == 0 {
		port := []int{25, 53, 80, 1024 + r.Intn(64)}[r.Intn(4)]
		data[22], data[23] = byte(port>>8), byte(port)
	}
	return data
}

// fddRuleSet builds a deterministic rule list with overlapping
// prefixes, shadowed rules, negations, relational port ranges, and
// TCP-flag patterns — the shapes fusion must preserve.
func fddRuleSet(r *rand.Rand, n int) []string {
	hosts := []string{"10.0.0.2", "10.0.1.2", "10.0.2.3"}
	nets := []string{"10.0.0.0/8", "10.0.1.0/24", "172.16.0.0/12"}
	var rules []string
	for i := 0; i < n; i++ {
		action := []string{"allow", "deny"}[r.Intn(2)]
		var expr string
		switch r.Intn(8) {
		case 0:
			expr = fmt.Sprintf("src host %s && udp && dst port %d", hosts[r.Intn(len(hosts))], 1000+r.Intn(8))
		case 1:
			expr = fmt.Sprintf("dst net %s && tcp", nets[r.Intn(len(nets))])
		case 2:
			expr = fmt.Sprintf("tcp && dst port >= %d", 1024+r.Intn(1024))
		case 3:
			expr = fmt.Sprintf("udp && src port < %d", 1+r.Intn(2048))
		case 4:
			expr = fmt.Sprintf("not src net %s && ip frag", nets[r.Intn(len(nets))])
		case 5:
			expr = "tcp syn && not tcp ack"
		case 6:
			expr = fmt.Sprintf("ip proto %d", r.Intn(20))
		case 7:
			expr = fmt.Sprintf("host %s || (udp && dst port <= %d)", hosts[r.Intn(len(hosts))], 53+r.Intn(100))
		}
		rules = append(rules, action+" "+expr)
	}
	rules = append(rules, "allow udp")
	return rules
}

func TestCloneIndependent(t *testing.T) {
	pr, err := BuildIPFilterProgram([]string{"allow udp && dst port 53", "deny all"})
	if err != nil {
		t.Fatal(err)
	}
	c := pr.Clone()
	c.Exprs[0].Mask = 0xdeadbeef
	c.Exprs[0].Value = 0
	if pr.Exprs[0].Mask == 0xdeadbeef {
		t.Fatal("Clone shares the node slice with the original")
	}
}

// TestSpliceTwoStage composes an IPFilter with an IPClassifier the way
// the fuse pass does and checks the composition against running the
// stages in sequence, packet for packet.
func TestSpliceTwoStage(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s1, err := BuildIPFilterProgram(fddRuleSet(r, 3+r.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		s1.Optimize()
		s2, err := BuildIPClassifierProgram([]string{"udp", "tcp", "-"})
		if err != nil {
			t.Fatal(err)
		}
		s2.Optimize()

		// Filter output 0 continues into the classifier; classifier
		// ports are the composition's exit ports.
		composed := Splice(s1.Clone(), []*Program{s2.Clone()}, []int{-1})
		composed.NOutputs = s2.NOutputs
		composed.Optimize()
		if err := composed.Validate(); err != nil {
			t.Fatalf("composed program invalid: %v\n%s", err, composed)
		}

		for i := 0; i < 400; i++ {
			data := randFDDPacket(r)
			wantPort, wantOK := -1, false
			if p1, ok, _ := s1.Match(data); ok && p1 == 0 {
				wantPort, wantOK = -1, false
				if p2, ok2, _ := s2.Match(data); ok2 {
					wantPort, wantOK = p2, true
				}
			}
			gotPort, gotOK, _ := composed.Match(data)
			if gotOK != wantOK || (wantOK && gotPort != wantPort) {
				t.Fatalf("trial %d packet %d: composed (%d,%v), sequential (%d,%v)\n%x",
					trial, i, gotPort, gotOK, wantPort, wantOK, data)
			}
		}
	}
}

// TestSpecializeFDDEquivalence: the FDD rebuild must preserve the
// classification function exactly, across random rule sets and random
// (including short) packets.
func TestSpecializeFDDEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		pr, err := BuildIPFilterProgram(fddRuleSet(r, 2+r.Intn(12)))
		if err != nil {
			t.Fatal(err)
		}
		pr.Optimize()
		orig := pr.Clone()
		if !pr.SpecializeFDD(200000) {
			t.Fatalf("trial %d: FDD rebuild over budget on %d nodes", trial, len(orig.Exprs))
		}
		if err := pr.Validate(); err != nil {
			t.Fatalf("trial %d: FDD output invalid: %v\n%s", trial, err, pr)
		}
		for i := 0; i < 500; i++ {
			data := randFDDPacket(r)
			wp, wok, _ := orig.Match(data)
			gp, gok, _ := pr.Match(data)
			if wok != gok || (wok && wp != gp) {
				t.Fatalf("trial %d packet %d: FDD (%d,%v), tree (%d,%v)\n%x\ntree:\n%s\nfdd:\n%s",
					trial, i, gp, gok, wp, wok, data, orig, pr)
			}
		}
	}
}

// TestSpecializeFDDDropsCrossStageTests: after composing a filter that
// establishes "udp" with a classifier that re-tests udp/tcp, the FDD
// must decide the downstream tests from the upstream facts — a packet
// admitted by the filter must reach its exit without re-testing the
// protocol word, which shows up as fewer steps than the plain
// composition.
func TestSpecializeFDDDropsCrossStageTests(t *testing.T) {
	s1, err := BuildIPFilterProgram([]string{"allow udp && dst port 53", "deny all"})
	if err != nil {
		t.Fatal(err)
	}
	s1.Optimize()
	s2, err := BuildIPClassifierProgram([]string{"udp", "tcp", "-"})
	if err != nil {
		t.Fatal(err)
	}
	s2.Optimize()
	composed := Splice(s1.Clone(), []*Program{s2.Clone()}, []int{-1})
	composed.NOutputs = s2.NOutputs
	composed.Optimize()
	fdd := composed.Clone()
	if !fdd.SpecializeFDD(100000) {
		t.Fatal("over budget")
	}

	dns := make([]byte, 40)
	dns[0] = 0x45
	dns[9] = 17 // udp, not a fragment
	dns[22], dns[23] = 0, 53
	wp, wok, treeSteps := composed.Match(dns)
	gp, gok, fddSteps := fdd.Match(dns)
	if !wok || !gok || wp != 0 || gp != 0 {
		t.Fatalf("dns packet misrouted: tree (%d,%v), fdd (%d,%v)", wp, wok, gp, gok)
	}
	if fddSteps >= treeSteps {
		t.Fatalf("FDD did not shorten the admitted path: %d steps vs %d", fddSteps, treeSteps)
	}
}

// TestSpecializeFDDBudget: an exhausted budget must leave the program
// untouched and report false.
func TestSpecializeFDDBudget(t *testing.T) {
	pr, err := BuildIPFilterProgram(fddRuleSet(rand.New(rand.NewSource(3)), 10))
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	orig := pr.Clone()
	if pr.SpecializeFDD(1) {
		t.Fatal("budget of 1 visit unexpectedly sufficed")
	}
	if !pr.Equal(orig) {
		t.Fatal("failed rebuild mutated the program")
	}
}

// TestSpecializeFDDSharesSubtrees: duplicate rule structure must
// hash-cons: a shadowed duplicate rule adds no nodes to the diagram.
func TestSpecializeFDDSharesSubtrees(t *testing.T) {
	base := []string{"allow src host 10.0.0.2 && udp && dst port 53", "deny all"}
	dup := []string{
		"allow src host 10.0.0.2 && udp && dst port 53",
		"allow src host 10.0.0.2 && udp && dst port 53", // shadowed
		"deny all",
	}
	one, err := BuildIPFilterProgram(base)
	if err != nil {
		t.Fatal(err)
	}
	one.Optimize()
	two, err := BuildIPFilterProgram(dup)
	if err != nil {
		t.Fatal(err)
	}
	two.Optimize()
	if !one.SpecializeFDD(100000) || !two.SpecializeFDD(100000) {
		t.Fatal("over budget")
	}
	if len(two.Exprs) != len(one.Exprs) {
		t.Fatalf("shadowed duplicate rule not eliminated: %d nodes vs %d", len(two.Exprs), len(one.Exprs))
	}
}

// deepChainRules is a rule chain in which no test decides another: each
// rule pins one source or destination host, so the path that misses
// every rule carries only negative facts and must expand every node.
func deepChainRules(n int) []string {
	rules := make([]string, 0, n+1)
	for k := 0; k < n; k++ {
		if k%2 == 0 {
			rules = append(rules, fmt.Sprintf("deny src host 10.0.%d.%d", k/250, 1+k%250))
		} else {
			rules = append(rules, fmt.Sprintf("allow dst host 10.1.%d.%d", k/250, 1+k%250))
		}
	}
	return append(rules, "deny all")
}

// TestSpecializeFDDDeepPath: on a chain whose FDD path depth equals the
// node count, the rebuild keeps every test (none is decided), and the
// diagram and its compiled matcher agree with the interpreter on random
// and truncated packets, many of which hit a rule deep in the chain.
func TestSpecializeFDDDeepPath(t *testing.T) {
	const n = 300
	pr, err := BuildIPFilterProgram(deepChainRules(n))
	if err != nil {
		t.Fatal(err)
	}
	pr.Optimize()
	if len(pr.Exprs) != n || pr.Depth() != n {
		t.Fatalf("chain: %d nodes, depth %d; want %d and %d", len(pr.Exprs), pr.Depth(), n, n)
	}
	orig := pr.Clone()
	if !pr.SpecializeFDD(10 * n * n) {
		t.Fatal("over budget")
	}
	pr.Optimize()
	if err := pr.Validate(); err != nil {
		t.Fatalf("FDD output invalid: %v", err)
	}
	if d := pr.Depth(); d != n {
		t.Fatalf("FDD depth %d, want %d: a test on the miss path was dropped", d, n)
	}
	comp := Compile(pr)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		data := make([]byte, r.Intn(40))
		r.Read(data)
		if len(data) >= 20 && r.Intn(4) != 0 {
			// A host some rule names: the k-th rule's host.
			k := r.Intn(n)
			off := 12
			hi := byte(0)
			if k%2 == 1 {
				off, hi = 16, 1
			}
			copy(data[off:], []byte{10, hi, byte(k / 250), byte(1 + k%250)})
		}
		wp, wok, _ := orig.Match(data)
		gp, gok, _ := pr.Match(data)
		cp, cok, _ := comp.Match(data)
		if wok != gok || wok != cok || (wok && (wp != gp || wp != cp)) {
			t.Fatalf("packet %d (%d bytes): tree (%d,%v), FDD (%d,%v), compiled (%d,%v)\n%x",
				i, len(data), wp, wok, gp, gok, cp, cok, data)
		}
	}
}

// TestSpecializeFDDDeterministic: rebuilding two clones of one program
// gives identical diagrams.
func TestSpecializeFDDDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	progs := []*Program{}
	for trial := 0; trial < 20; trial++ {
		pr, err := BuildIPFilterProgram(fddRuleSet(r, 2+r.Intn(12)))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, pr)
	}
	deep, err := BuildIPFilterProgram(deepChainRules(64))
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range append(progs, deep) {
		pr.Optimize()
		a, b := pr.Clone(), pr.Clone()
		if !a.SpecializeFDD(200000) || !b.SpecializeFDD(200000) {
			t.Fatalf("program %d: over budget", i)
		}
		if !a.Equal(b) {
			t.Fatalf("program %d: two rebuilds differ\n%s\nvs\n%s", i, a, b)
		}
	}
}
