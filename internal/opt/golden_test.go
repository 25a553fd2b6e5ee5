package opt

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
)

const passesGolden = "testdata/passes.golden"

// passOutputDigest hashes a pass chain's output: the unparsed
// configuration, then every archive entry in name order.
func passOutputDigest(g *graph.Router) string {
	h := sha256.New()
	h.Write([]byte(lang.Unparse(g)))
	names := make([]string, 0, len(g.Archive))
	for name := range g.Archive {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "\x00%s\x00%d\x00", name, len(g.Archive[name]))
		h.Write(g.Archive[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// firewalledIPRouter8 splices the §4 classification run (17-rule
// IPFilter, an IPClassifier and a StaticSwitch) into every input path
// of the 8-interface IP router, as the fwd-mixed benchmark workload does.
func firewalledIPRouter8(text string) string {
	for i := 0; i < 8; i++ {
		inject := fmt.Sprintf(
			"GetIPAddress(16) -> flt%d :: IPFilter(%s);\n"+
				"flt%d [0] -> fc%d :: IPClassifier(udp, tcp, -);\n"+
				"fc%d [0] -> sw%d :: StaticSwitch(0) -> rt;\nfc%d [1] -> rt;\nfc%d [2] -> rt;\n",
			i, iprouter.FirewallConfigArg(), i, i, i, i, i, i)
		text = strings.Replace(text, "GetIPAddress(16) -> rt;\n", inject, 1)
	}
	return text
}

// alternatingFirewalledIPRouter8 is firewalledIPRouter8 with runs that
// differ from their neighbours: odd interfaces switch to port 1 (both
// switch ports lead to rt), and interfaces 2, 3, 6 and 7 run the
// firewall with rule 11 turned into an allow. The four distinct runs
// alternate, so a pass that reused one run's composition for another
// would show here.
func alternatingFirewalledIPRouter8(text string) string {
	changed := iprouter.FirewallRules()
	changed[10] = "allow udp && dst port 69"
	for i := 0; i < 8; i++ {
		rules := iprouter.FirewallConfigArg()
		if i&2 != 0 {
			rules = strings.Join(changed, ", ")
		}
		inject := fmt.Sprintf(
			"GetIPAddress(16) -> flt%d :: IPFilter(%s);\n"+
				"flt%d [0] -> fc%d :: IPClassifier(udp, tcp, -);\n"+
				"fc%d [0] -> sw%d :: StaticSwitch(%d) -> rt;\nsw%d [1] -> rt;\nfc%d [1] -> rt;\nfc%d [2] -> rt;\n",
			i, rules, i, i, i, i, i&1, i, i, i)
		text = strings.Replace(text, "GetIPAddress(16) -> rt;\n", inject, 1)
	}
	return text
}

// ctlTenantConfig is one tenant of the ctl-churn benchmark workload:
// the §4 firewall with rule 11 turned into an allow for UDP port 2000,
// then an IPClassifier, a queue and a transmitter.
const ctlTenantConfig = `pd :: PollDevice(eth0) -> flt :: IPFilter(deny src net 10.0.0.0/8 && ip frag, ` +
	`deny src host 192.168.1.1, allow src net 172.16.0.0/12 && tcp && dst port 25, ` +
	`allow dst host 10.0.0.2 && tcp && dst port 25, deny tcp && dst port 23, deny tcp && dst port 513, ` +
	`deny tcp && dst port 514, allow src host 10.0.0.2 && tcp && src port 25, ` +
	`allow tcp && dst port 80 && dst host 10.0.0.3, allow tcp && src port 80 && src host 10.0.0.3, ` +
	`allow udp && dst port 2000, deny udp && dst port 161, allow icmp type echo, allow icmp type echo-reply, ` +
	`allow dst host 10.0.0.2 && tcp && dst port 53, allow dst host 10.0.0.2 && udp && dst port 53, deny all) ` +
	`-> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(64) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`

// goldenPassOutputs runs every golden case and returns "name digest"
// lines in a fixed order.
func goldenPassOutputs(t *testing.T) []string {
	t.Helper()
	conf, err := os.ReadFile(iprouter8Conf)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ParsePatterns(iprouter.ComboPatterns, "combopatterns")
	if err != nil {
		t.Fatal(err)
	}
	type pass struct {
		name  string
		apply func(*graph.Router, *core.Registry) error
	}
	chain := []pass{
		{"xform", func(g *graph.Router, _ *core.Registry) error { Xform(g, pairs); return nil }},
		{"fastclassifier", FastClassifier},
		{"devirtualize", func(g *graph.Router, reg *core.Registry) error { return Devirtualize(g, reg, nil) }},
		{"undead", func(g *graph.Router, reg *core.Registry) error { Undead(g, reg); return nil }},
	}
	run := func(name, text string, passes []pass) string {
		g, err := lang.ParseRouter(text, name)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		reg := elements.NewRegistry()
		for _, p := range passes {
			if err := p.apply(g, reg); err != nil {
				t.Fatalf("%s: %s: %v", name, p.name, err)
			}
		}
		return name + " " + passOutputDigest(g)
	}

	var lines []string
	for n := 0; n <= len(chain); n++ {
		name := "iprouter8"
		for _, p := range chain[:n] {
			name += "+" + p.name
		}
		lines = append(lines, run(name, string(conf), chain[:n]))
	}
	mixed := append([]pass{{"fuse", Fuse}}, chain...)
	mixed = append(mixed, pass{"flowcache", InstallFlowCache})
	lines = append(lines, run("iprouter8-firewalled+fuse+all+flowcache", firewalledIPRouter8(string(conf)), mixed))
	lines = append(lines, run("iprouter8-alternating+fuse+all+flowcache", alternatingFirewalledIPRouter8(string(conf)), mixed))
	lines = append(lines, run("ctl-tenant+fuse", ctlTenantConfig, []pass{{"fuse", Fuse}}))
	for seed := int64(0); seed < 50; seed++ {
		text, _ := randomPushConfig(seed)
		lines = append(lines, run(fmt.Sprintf("random%d+all", seed), text, []pass{{"all", applyAllPasses}}))
	}
	return lines
}

// TestPassOutputsGolden pins the exact output of the optimizer passes:
// the configuration text and archive each chain produces must hash to
// the digests committed in testdata/passes.golden. A change to a pass's
// data structures must not change its output, connection order
// included. To accept an intended output change, replace the file with
// the lines this test prints on failure.
func TestPassOutputsGolden(t *testing.T) {
	got := goldenPassOutputs(t)
	data, err := os.ReadFile(passesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	wantOf := map[string]string{}
	for _, l := range want {
		name, digest, _ := strings.Cut(l, " ")
		wantOf[name] = digest
	}
	for _, l := range got {
		name, digest, _ := strings.Cut(l, " ")
		if wantOf[name] != digest {
			t.Errorf("%s: digest %s, golden %q", name, digest, wantOf[name])
		}
	}
	t.Errorf("pass outputs differ from %s (%d entries, golden has %d); current outputs:\n%s",
		passesGolden, len(got), len(want), strings.Join(got, "\n"))
}
