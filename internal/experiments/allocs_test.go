package experiments

import (
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/packet"
)

// TestForwardingAllocatesNothing is the forwarding path's allocation
// gate: once warm, a thousand consecutive 32-frame bursts through the
// Figure 1 eight-interface router reach the allocator zero times,
// scalar, after the All chain at Burst 32, and fused behind a FlowCache.
// Headers, buffers and reference counts all come from packet's pool, so
// anything this catches is an element or the run loop allocating per
// packet.
func TestForwardingAllocatesNothing(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("headers are not recycled under -race")
	}
	const burst = 32
	ifs := iprouter.Interfaces(EvalInterfaces)
	rules, ruleTexts := fusionRules(rand.New(rand.NewSource(1)), 17)
	for _, c := range []struct {
		name   string
		text   string
		passes func(g *graph.Router, reg *core.Registry) error
		burst  int
	}{
		{"scalar", iprouter.Config(ifs), nil, 0},
		{"all-burst32", iprouter.Config(ifs), fusionAllPasses, burst},
		{"fused-flowcache", fusionConfig(ifs, ruleTexts), func(g *graph.Router, reg *core.Registry) error {
			if err := opt.Fuse(g, reg); err != nil {
				return err
			}
			if err := fusionAllPasses(g, reg); err != nil {
				return err
			}
			return opt.InstallFlowCache(g, reg)
		}, burst},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, devs, err := buildOnMemDevices(c.text, c.name, c.passes, ifs, core.BuildOptions{Burst: c.burst})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			// Transit frames the firewall variant admits too, as raw
			// bytes: each burst enters as fresh packets, like a device's.
			var frames [burst][]byte
			for i, p := range fusionTrace(rand.New(rand.NewSource(2)), ifs, rules, burst) {
				frames[i] = append([]byte(nil), p.Data()...)
				p.Kill()
			}
			var rx [burst]*packet.Packet
			offer := func() {
				for i, f := range frames {
					rx[i] = packet.New(f)
				}
				devs[0].rx = rx[:]
				for rt.RunTaskRound() {
				}
			}
			offer() // warm-up: the flow cache records, the pool fills
			var sent int64
			for _, d := range devs {
				sent += d.sent
			}
			if sent != burst {
				t.Fatalf("forwarded %d of the %d warm-up frames", sent, burst)
			}
			if allocs := testing.AllocsPerRun(1000, offer); allocs != 0 {
				t.Errorf("%v allocations per %d-frame burst, want 0", allocs, burst)
			}
		})
	}
}

// TestBringUpAllocationCeilings caps the allocations of parsing and of
// building the committed eight-interface IP router. Construction runs
// on every management-plane create and swap, so an allocation added
// here shows up in ctl-churn's per-packet allocation count. The
// ceilings are the counts measured at commit e5336a0 (go1.24), before
// graph.Router gained its adjacency index, which construction must
// never build.
func TestBringUpAllocationCeilings(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const (
		parseCeiling = 2690 // lang.ParseRouter(iprouter8.click)
		buildCeiling = 3639 // core.Build of it, with Close
	)
	data, err := os.ReadFile("../../configs/iprouter8.click")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	parse := testing.AllocsPerRun(20, func() {
		if _, err := lang.ParseRouter(text, "iprouter8"); err != nil {
			t.Fatal(err)
		}
	})
	g, err := lang.ParseRouter(text, "iprouter8")
	if err != nil {
		t.Fatal(err)
	}
	reg := elements.NewRegistry()
	env := map[string]interface{}{}
	for _, itf := range iprouter.Interfaces(EvalInterfaces) {
		env["device:"+itf.Device] = &memDevice{name: itf.Device}
	}
	build := testing.AllocsPerRun(20, func() {
		rt, err := core.Build(g, reg, core.BuildOptions{Env: env})
		if err != nil {
			t.Fatal(err)
		}
		rt.Close()
	})
	t.Logf("parse %v, build %v allocations", parse, build)
	if parse > parseCeiling {
		t.Errorf("lang.ParseRouter(iprouter8): %v allocations, ceiling %d", parse, parseCeiling)
	}
	if build > buildCeiling {
		t.Errorf("core.Build(iprouter8): %v allocations, ceiling %d", build, buildCeiling)
	}
}
