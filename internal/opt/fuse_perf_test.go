package opt

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/lang"
	"repro/internal/packet"
)

// fuseWorkloads are the configurations the benchmark workloads fuse:
// fwd-mixed's firewalled 8-interface router (eight identical runs) and
// one ctl-churn tenant (a single run).
func fuseWorkloads(tb testing.TB) []struct{ name, text string } {
	conf, err := os.ReadFile(iprouter8Conf)
	if err != nil {
		tb.Fatal(err)
	}
	return []struct{ name, text string }{
		{"fwd-mixed", firewalledIPRouter8(string(conf))},
		{"ctl-tenant", ctlTenantConfig},
	}
}

// fuseInputs parses text once and returns n fresh graph/registry pairs
// for Fuse to consume, so a measurement covers Fuse alone.
func fuseInputs(tb testing.TB, text string, n int) ([]*graph.Router, []*core.Registry) {
	g, err := lang.ParseRouter(text, "fuse")
	if err != nil {
		tb.Fatal(err)
	}
	gs := make([]*graph.Router, n)
	regs := make([]*core.Registry, n)
	for i := range gs {
		gs[i], regs[i] = g.Clone(), elements.NewRegistry()
	}
	return gs, regs
}

func BenchmarkFuse(b *testing.B) {
	for _, w := range fuseWorkloads(b) {
		b.Run(w.name, func(b *testing.B) {
			gs, regs := fuseInputs(b, w.text, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Fuse(gs[i], regs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFuseAllocationCeilings bounds the allocations of one Fuse call on
// each benchmark configuration. The ceilings sit just above the counts
// measured with go1.24 once the classifier compiler allocated per
// program rather than per path or node: fwd-mixed reads 532 or 533,
// depending on how the map seeds split the largest hash tables, and
// ctl-tenant 217. Before that they were 572 to 573 and 256; before Fuse
// composed each distinct run once per call, 6 131 and 1 783.
func TestFuseAllocationCeilings(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ceilings := map[string]float64{
		"fwd-mixed":  534,
		"ctl-tenant": 218,
	}
	for _, w := range fuseWorkloads(t) {
		const runs = 20
		gs, regs := fuseInputs(t, w.text, runs+1)
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := Fuse(gs[i], regs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %v allocations", w.name, allocs)
		if allocs > ceilings[w.name] {
			t.Errorf("Fuse(%s): %v allocations, ceiling %v", w.name, allocs, ceilings[w.name])
		}
	}
}
