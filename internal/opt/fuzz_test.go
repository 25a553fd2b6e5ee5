package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/packet"
)

// fuzzRuleText reports whether s is safe to embed as an element
// configuration argument list: the IP-expression token charset and the
// comma between arguments, so anything the classifier parser could
// accept. Everything else (config
// metacharacters, control bytes, non-ASCII) is rejected up front rather
// than letting the fuzzer explore the configuration grammar, which
// FuzzParse already owns.
func fuzzRuleText(s string) bool {
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case strings.ContainsRune(" \t.,:/!&|()<>=-", c):
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
// exercise the short-packet soundness of the diagram build. A Tee feeds
// the trace into two such chains, the second switching to the fuzzed
// port (-1 to 2), so the pass sees both identical runs (which share one
// composition) and runs that differ only in the switch constant.
func FuzzFuse(f *testing.F) {
	fw := strings.Join(iprouter.FirewallRules(), ", ")
	seed := packet.BuildUDP4(
		packet.EtherAddr{0, 1, 2, 3, 4, 5}, packet.EtherAddr{6, 7, 8, 9, 10, 11},
		packet.MakeIP4(10, 0, 0, 2), packet.MakeIP4(10, 0, 2, 2),
		1234, 53, make([]byte, 18)).Data()
	f.Add("allow src host 10.0.0.2 && udp && dst port 53, deny all", "udp, tcp, -", seed, int8(1))
	f.Add(fw, "ip proto 17, tcp syn && !ack, -", seed, int8(0))
	f.Add("allow dst port >= 1024 && dst port < 4096, allow not src net 10.0.0.0/8, deny all",
		"udp && dst port <= 1000, not ip frag, -", []byte{0x45}, int8(0))
	f.Add("1 tcp, 2 udp, 0 icmp, deny all", "dst host 10.0.2.2 || udp, -", seed[:21], int8(2))
	f.Add(fw, "udp, tcp, -", seed, int8(-1))
	f.Add("allow udp && src net 10.0.0.0/8, deny all", "dst port 2, udp, -", seed, int8(0))

	f.Fuzz(func(t *testing.T, rules, exprs string, raw []byte, port int8) {
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

		// Two filter → classifier → switch chains behind a Tee, which
		// sees IP headers first, as the filters expect. Every output is
		// wired to its own sink device, so diffCompare sees per-port
		// streams.
		lines := []string{"pd :: PollDevice(eth0) -> Strip(14) -> t :: Tee;"}
		sinks := 0
		sink := func(from string, port int) {
			sinks++
			lines = append(lines,
				fmt.Sprintf("q%d :: Queue; td%d :: ToDevice(eth%d);", sinks, sinks, sinks),
				fmt.Sprintf("%s [%d] -> q%d -> td%d;", from, port, sinks, sinks))
		}
		for c, swPort := range []int{1, int(uint8(port))%4 - 1} {
			lines = append(lines,
				fmt.Sprintf("flt%d :: IPFilter(%s);", c, rules),
				fmt.Sprintf("fc%d :: IPClassifier(%s);", c, exprs),
				fmt.Sprintf("sw%d :: StaticSwitch(%d);", c, swPort),
				fmt.Sprintf("t [%d] -> flt%d;", c, c),
				fmt.Sprintf("flt%d [0] -> fc%d;", c, c),
				fmt.Sprintf("fc%d [0] -> sw%d;", c, c))
			for j := 1; j < pf.NOutputs; j++ {
				sink(fmt.Sprintf("flt%d", c), j)
			}
			for j := 1; j < pc.NOutputs; j++ {
				sink(fmt.Sprintf("fc%d", c), j)
			}
			sink(fmt.Sprintf("sw%d", c), 0)
			sink(fmt.Sprintf("sw%d", c), 1)
		}
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

// FuzzProgramsArchive feeds arbitrary "programs" archive members, the
// format fuse and fastclassifier archives carry and tool.ReadConfig
// installs, to their parser. A member is rejected, or every program in
// it compiles, classifies a fuzzed frame without panicking and as the
// interpreter does, and survives a String → ParseProgram round trip.
func FuzzProgramsArchive(f *testing.F) {
	g, err := lang.ParseRouter(fuseRunsConfig(0, 1), "seed")
	if err != nil {
		f.Fatal(err)
	}
	if err := Fuse(g, elements.NewRegistry()); err != nil {
		f.Fatal(err)
	}
	frame := iprouter.DNS5Packet().Data()
	f.Add(g.Archive["fuse/programs"], frame)
	f.Add([]byte("class X"), frame)
	f.Add([]byte("class X\nnoutputs 1 entry 0 safe_length 0\n0  12/08000000%ffff0000  yes->[0]  no->drop\nend\n"), []byte{1, 2, 3})
	f.Add([]byte("class X\nnoutputs 2 entry 0 safe_length 64\n0  12/08000000%ffff0000  yes->step_1  no->drop\n"+
		"1  20/00000001%000000ff  yes->[1]  no->[0]\nend\n"), frame[:16])

	f.Fuzz(func(t *testing.T, member, frame []byte) {
		if len(member) > 1<<16 {
			return
		}
		progs, err := parseProgramsArchive(member)
		if err != nil {
			return
		}
		for _, np := range progs {
			pr := np.program
			port, ok, _ := classifier.Compile(pr).Match(frame)
			wantPort, wantOK, _ := pr.Match(frame)
			if port != wantPort || ok != wantOK {
				t.Fatalf("%s: compiled (%d, %v), interpreter (%d, %v)\n%s", np.name, port, ok, wantPort, wantOK, pr)
			}
			back, err := classifier.ParseProgram(pr.String())
			if err != nil || !back.Equal(pr) || back.SafeLength != pr.SafeLength {
				t.Fatalf("%s: String/ParseProgram round trip: %v\n%s", np.name, err, pr)
			}
		}
	})
}
