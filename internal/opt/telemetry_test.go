package opt

// Telemetry tests over real router configurations: every packet a
// router element receives must be accounted for (forwarded, delivered,
// or dropped) in every execution mode, the implicit stats handlers must
// survive every optimizer pass, and the passes must leave structured
// diagnostic reports behind.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
)

// expanderClasses may legitimately emit more packets than they receive
// (clones, fragments, generated queries/replies); for them conservation
// is the weaker "nothing vanishes" inequality.
var expanderClasses = map[string]bool{
	"Tee":           true,
	"PaintTee":      true,
	"CheckPaint":    true,
	"ARPQuerier":    true,
	"ICMPError":     true,
	"IPFragmenter":  true,
	"IPOutputCombo": true,
}

// sourceClasses originate packets from outside the graph (device rings),
// so their input counters stay zero.
var sourceClasses = map[string]bool{
	"PollDevice": true,
	"FromDevice": true,
}

// telemetryBaseClass sees through the class names the optimizers
// synthesize: click-devirtualize's "_dvN" suffix and
// click-fastclassifier's "FastClassifier@@name" generated classes.
func telemetryBaseClass(class string) string {
	if strings.HasPrefix(class, "FastClassifier@@") {
		return "FastClassifier"
	}
	if i := strings.LastIndex(class, "_dv"); i > 0 {
		if _, err := strconv.Atoi(class[i+3:]); err == nil {
			return class[:i]
		}
	}
	return class
}

// checkConservation asserts, for every element of a drained router,
// packets_in == packets_out + drops (sources must have packets_in == 0;
// expanders may emit extra packets but must not lose any).
func checkConservation(t *testing.T, label string, rt *core.Router) {
	t.Helper()
	reps := rt.StatsReport()
	sawTraffic := false
	for _, r := range reps {
		if r.PacketsIn > 0 || r.PacketsOut > 0 {
			sawTraffic = true
		}
		base := telemetryBaseClass(r.Class)
		switch {
		case sourceClasses[base]:
			if r.PacketsIn != 0 {
				t.Errorf("%s: source %s (%s) has packets_in = %d", label, r.Name, r.Class, r.PacketsIn)
			}
		case expanderClasses[base]:
			if r.PacketsOut+r.Drops < r.PacketsIn {
				t.Errorf("%s: %s (%s) lost packets: in=%d out=%d drops=%d",
					label, r.Name, r.Class, r.PacketsIn, r.PacketsOut, r.Drops)
			}
		default:
			if r.PacketsIn != r.PacketsOut+r.Drops {
				t.Errorf("%s: %s (%s) violates conservation: in=%d out=%d drops=%d",
					label, r.Name, r.Class, r.PacketsIn, r.PacketsOut, r.Drops)
			}
		}
		if r.PacketsIn == 0 && r.BytesIn != 0 {
			t.Errorf("%s: %s has bytes_in without packets_in", label, r.Name)
		}
	}
	if !sawTraffic {
		t.Errorf("%s: no element saw any traffic", label)
	}
}

// telemetryRun builds the 2-interface IP router (optionally optimized),
// replays transit traffic, and returns the drained router.
func telemetryRun(t *testing.T, pass func(*graph.Router, *core.Registry) error,
	burst, npkts int) (*core.Router, []iprouter.Interface) {
	t.Helper()
	ifs := iprouter.Interfaces(2)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "telemetry")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	if pass != nil {
		if err := pass(g, reg); err != nil {
			t.Fatal(err)
		}
	}
	devs := map[string]*fakeDevice{}
	env := map[string]interface{}{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("eth%d", i)
		d := &fakeDevice{name: name}
		devs[name] = d
		env["device:"+name] = d
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env, Burst: burst})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	warmARP(rt, ifs)
	for _, p := range ipTrace(ifs, npkts) {
		devs["eth0"].rx = append(devs["eth0"].rx, p)
	}
	rt.RunUntilIdle(100000)
	if got := len(devs["eth1"].tx); got == 0 {
		t.Fatal("router forwarded nothing")
	}
	return rt, ifs
}

// allPasses runs the full optimizer chain.
func allPasses(g *graph.Router, reg *core.Registry) error {
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

// TestTelemetryConservation drives the IP router in every execution
// mode, unoptimized and fully optimized, and asserts the per-element
// conservation law packets_in == packets_out + drops.
func TestTelemetryConservation(t *testing.T) {
	modes := []struct {
		name  string
		burst int
	}{
		{"scalar", 0},
		{"batch8", 8},
		{"batch32", 32},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			rt, _ := telemetryRun(t, nil, m.burst, 200)
			checkConservation(t, "plain/"+m.name, rt)
		})
		t.Run(m.name+"+opt", func(t *testing.T) {
			rt, _ := telemetryRun(t, allPasses, m.burst, 200)
			checkConservation(t, "opt/"+m.name, rt)
		})
	}
}

// TestStatsHandlersSurvivePasses asserts every element still answers
// the implicit telemetry handlers after each optimizer pass rewrote the
// configuration.
func TestStatsHandlersSurvivePasses(t *testing.T) {
	passes := append([]struct {
		name  string
		apply func(g *graph.Router, reg *core.Registry) error
	}{{"none", nil}, {"all", allPasses}}, diffPasses...)
	handlers := []string{"packets_in", "bytes_in", "packets_out", "bytes_out", "drops", "cycles"}
	for _, p := range passes {
		t.Run(p.name, func(t *testing.T) {
			rt, _ := telemetryRun(t, p.apply, 0, 50)
			anyIn := false
			for _, i := range rt.Graph.LiveIndices() {
				name := rt.Graph.Element(i).Name
				for _, h := range handlers {
					v, err := rt.ReadHandler(name + "." + h)
					if err != nil {
						t.Fatalf("pass %s: %s.%s: %v", p.name, name, h, err)
					}
					if _, err := strconv.ParseInt(v, 10, 64); err != nil {
						// An element-provided handler of the same name may
						// answer differently; it still must answer a number.
						t.Fatalf("pass %s: %s.%s = %q, not an integer", p.name, name, h, v)
					}
				}
				if v, _ := rt.ReadHandler(name + ".packets_in"); v != "0" && v != "" {
					anyIn = true
				}
			}
			if !anyIn {
				t.Fatalf("pass %s: all packets_in handlers read zero", p.name)
			}
		})
	}
}

// TestTracingOptimizedRouter records per-packet paths through the fully
// optimized router and checks the trace names live elements in a
// plausible forwarding order.
func TestTracingOptimizedRouter(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "telemetry")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	if err := allPasses(g, reg); err != nil {
		t.Fatal(err)
	}
	devs := map[string]*fakeDevice{}
	env := map[string]interface{}{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("eth%d", i)
		d := &fakeDevice{name: name}
		devs[name] = d
		env["device:"+name] = d
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	tracer := rt.EnableTracing(4096)
	warmARP(rt, ifs)
	for _, p := range ipTrace(ifs, 5) {
		devs["eth0"].rx = append(devs["eth0"].rx, p)
	}
	rt.RunUntilIdle(100000)

	live := map[string]bool{}
	for _, i := range rt.Graph.LiveIndices() {
		live[rt.Graph.Element(i).Name] = true
	}
	paths := tracer.Paths()
	if len(paths) != 5 {
		t.Fatalf("traced %d packets, want 5", len(paths))
	}
	for id, path := range paths {
		if len(path) < 3 {
			t.Errorf("packet %d path too short: %v", id, path)
		}
		for _, elem := range path {
			if !live[elem] {
				t.Errorf("packet %d path names unknown element %q", id, elem)
			}
		}
		// Transit traffic must end at the transmitting device element.
		last := path[len(path)-1]
		if !strings.HasPrefix(last, "td") {
			t.Errorf("packet %d path ends at %q, want a ToDevice: %v", id, last, path)
		}
	}
}

// TestPassReports runs the optimizer chain and asserts each pass left a
// structured report in the archive, with counts matching its visible
// effect, and that reports survive a configuration round trip.
func TestPassReports(t *testing.T) {
	ifs := iprouter.Interfaces(2)
	g, err := lang.ParseRouter(iprouter.Config(ifs), "telemetry")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	pairs, err := ParsePatterns(iprouter.ComboPatterns, "combopatterns")
	if err != nil {
		t.Fatal(err)
	}
	nx := Xform(g, pairs)
	if err := FastClassifier(g, reg); err != nil {
		t.Fatal(err)
	}
	if err := Devirtualize(g, reg, nil); err != nil {
		t.Fatal(err)
	}
	nu := Undead(g, reg)

	reps, err := Reports(g)
	if err != nil {
		t.Fatal(err)
	}
	byPass := map[string]*PassReport{}
	for _, r := range reps {
		byPass[r.Pass] = r
	}
	for _, want := range []string{"xform", "fastclassifier", "devirtualize", "undead"} {
		if byPass[want] == nil {
			t.Fatalf("no report for pass %q (have %d reports)", want, len(reps))
		}
	}
	if got := byPass["xform"].Replacements; got != nx {
		t.Errorf("xform report says %d replacements, pass returned %d", got, nx)
	}
	total := 0
	for _, n := range byPass["xform"].PatternCounts {
		total += n
	}
	if total != nx {
		t.Errorf("xform pattern counts sum to %d, want %d", total, nx)
	}
	if byPass["fastclassifier"].ClassesGenerated == 0 ||
		byPass["fastclassifier"].ElementsSpecialized < byPass["fastclassifier"].ClassesGenerated {
		t.Errorf("implausible fastclassifier report: %+v", byPass["fastclassifier"])
	}
	if byPass["devirtualize"].ClassesGenerated == 0 {
		t.Errorf("devirtualize generated no classes: %+v", byPass["devirtualize"])
	}
	specialized := 0
	for _, members := range byPass["devirtualize"].Classes {
		specialized += len(members)
	}
	if specialized != byPass["devirtualize"].ElementsSpecialized {
		t.Errorf("devirtualize class map lists %d elements, report says %d",
			specialized, byPass["devirtualize"].ElementsSpecialized)
	}
	if byPass["undead"].ElementsRemoved != nu || len(byPass["undead"].Removed) != nu {
		t.Errorf("undead report (%d removed, %d names) disagrees with pass return %d",
			byPass["undead"].ElementsRemoved, len(byPass["undead"].Removed), nu)
	}

	// Reports survive the textual archive round trip the tools use.
	text := lang.Unparse(g)
	var members []lang.ArchiveMember
	for name, data := range g.Archive {
		members = append(members, lang.ArchiveMember{Name: name, Data: data})
	}
	packed := lang.PackConfig(text, members)
	config, extra, err := lang.UnpackConfig(packed)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lang.ParseRouter(config, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range extra {
		g2.Archive[m.Name] = m.Data
	}
	reps2, err := Reports(g2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps2) != len(reps) {
		t.Fatalf("round trip kept %d reports, want %d", len(reps2), len(reps))
	}

	// Undead names what it removed on a config with known dead code.
	g3, err := lang.ParseRouter(
		"src :: InfiniteSource(64, 5) -> sw :: StaticSwitch(0);"+
			"sw [0] -> cnt :: Counter -> Discard; sw [1] -> dead :: Counter -> Discard;",
		"undead-test")
	if err != nil {
		t.Fatal(err)
	}
	Undead(g3, elements.NewRegistry())
	reps3, err := Reports(g3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps3) != 1 || reps3[0].Pass != "undead" {
		t.Fatalf("expected one undead report, got %v", reps3)
	}
	found := false
	for _, n := range reps3[0].Removed {
		if n == "dead" {
			found = true
		}
	}
	if !found {
		t.Errorf("undead report does not name removed element %q: %v", "dead", reps3[0].Removed)
	}
}
