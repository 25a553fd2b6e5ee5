package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/packet"
)

// fuzzRuleText reports whether s is safe to embed as an element
// configuration argument: the IP-expression token charset, so anything
// the classifier parser could accept. Everything else (config
// metacharacters, control bytes, non-ASCII) is rejected up front rather
// than letting the fuzzer explore the configuration grammar, which
// FuzzParse already owns.
func fuzzRuleText(s string) bool {
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.ContainsRune(" \t.:/!&|()<>=-", c):
		default:
			return false
		}
	}
	return true
}

// FuzzFuse is the differential fuzz target for the whole-path fusion
// pass: any IPFilter ruleset and IPClassifier expression list the
// classifier front end accepts must, once fused into a decision
// diagram, forward an arbitrary packet trace exactly as the unfused
// chain does — same sink devices, same packets, same order. The raw
// byte input rides along as a packet so truncated and garbage headers
// exercise the short-packet soundness of the diagram build.
func FuzzFuse(f *testing.F) {
	fw := strings.Join(iprouter.FirewallRules(), ", ")
	seed := packet.BuildUDP4(
		packet.EtherAddr{0, 1, 2, 3, 4, 5}, packet.EtherAddr{6, 7, 8, 9, 10, 11},
		packet.MakeIP4(10, 0, 0, 2), packet.MakeIP4(10, 0, 2, 2),
		1234, 53, make([]byte, 18)).Data()
	f.Add("allow src host 10.0.0.2 && udp && dst port 53, deny all", "udp, tcp, -", seed)
	f.Add(fw, "ip proto 17, tcp syn && !ack, -", seed)
	f.Add("allow dst port >= 1024 && dst port < 4096, allow not src net 10.0.0.0/8, deny all",
		"udp && dst port <= 1000, not ip frag, -", []byte{0x45})
	f.Add("1 tcp, 2 udp, 0 icmp, deny all", "dst host 10.0.2.2 || udp, -", seed[:21])

	f.Fuzz(func(t *testing.T, rules, exprs string, raw []byte) {
		if len(rules) > 2048 || len(exprs) > 512 || len(raw) > 256 {
			return
		}
		if !fuzzRuleText(rules) || !fuzzRuleText(exprs) {
			return
		}
		ruleArgs := strings.Split(rules, ",")
		exprArgs := strings.Split(exprs, ",")
		if len(ruleArgs) > 64 || len(exprArgs) > 6 {
			return
		}
		pf, err := classifier.BuildIPFilterProgram(ruleArgs)
		if err != nil {
			return // rejecting malformed rules is fine
		}
		if pf.NOutputs > 4 {
			return
		}
		pc, err := classifier.BuildIPClassifierProgram(exprArgs)
		if err != nil {
			return
		}

		// A filter → classifier → switch chain with every output wired
		// to its own sink device, so diffCompare sees per-port streams.
		var lines []string
		lines = append(lines,
			"pd :: PollDevice(eth0);",
			fmt.Sprintf("flt :: IPFilter(%s);", rules),
			fmt.Sprintf("fc :: IPClassifier(%s);", exprs),
			"sw :: StaticSwitch(1);",
			"pd -> flt;", "flt [0] -> fc;", "fc [0] -> sw;")
		sinks := 0
		sink := func(from string, port int) {
			sinks++
			lines = append(lines,
				fmt.Sprintf("q%d :: Queue; td%d :: ToDevice(eth%d);", sinks, sinks, sinks),
				fmt.Sprintf("%s [%d] -> q%d -> td%d;", from, port, sinks, sinks))
		}
		for j := 1; j < pf.NOutputs; j++ {
			sink("flt", j)
		}
		for j := 1; j < pc.NOutputs; j++ {
			sink("fc", j)
		}
		sink("sw", 0)
		sink("sw", 1)
		text := strings.Join(lines, "\n")

		trace := diffTrace(7, 24)
		trace = append(trace, packet.New(append([]byte(nil), raw...)))
		base := diffRun(t, text, sinks+1, nil, 1, nil, trace)
		fused := diffRun(t, text, sinks+1,
			func(g *graph.Router, reg *core.Registry) error { return Fuse(g, reg) },
			1, nil, trace)
		diffCompare(t, "fuse", base, fused)
	})
}
