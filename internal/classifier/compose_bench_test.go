package classifier

import (
	"testing"

	"repro/internal/iprouter"
)

// benchCompositions builds, as the fuse pass does, the spliced runs the
// benchmark workloads admit: one ctl-churn tenant (the §4 firewall with
// rule 11 allowing UDP port 2000, then IPClassifier(udp, tcp, -) whose
// three ports exit) and one fwd-mixed input path (the §4 firewall, the
// same IPClassifier, and a StaticSwitch(0) absorbed on its port 0).
// Each composition is returned optimized, ready for SpecializeFDD.
func benchCompositions(tb testing.TB) []struct {
	name string
	prog *Program
} {
	stage := func(pr *Program, err error) *Program {
		if err != nil {
			tb.Fatal(err)
		}
		pr.Optimize()
		return pr
	}
	compose := func(rules []string, fcCont []*Program, fcExits []int) *Program {
		flt := stage(BuildIPFilterProgram(rules))
		fc := stage(BuildIPClassifierProgram([]string{"udp", "tcp", "-"}))
		pr := Splice(flt, []*Program{Splice(fc, fcCont, fcExits)}, []int{-1})
		pr.NOutputs = 3
		pr.Optimize()
		return pr
	}
	tenant := iprouter.FirewallRules()
	tenant[10] = "allow udp && dst port 2000"
	sw := Splice(&Program{Entry: LeafPort(0), NOutputs: 1}, []*Program{nil}, []int{0})
	return []struct {
		name string
		prog *Program
	}{
		{"ctl-tenant", compose(tenant, []*Program{nil, nil, nil}, []int{0, 1, 2})},
		{"fwd-mixed", compose(iprouter.FirewallRules(), []*Program{sw, nil, nil}, []int{-1, 1, 2})},
	}
}

// fddBudget is the fuse pass's visit budget for a tree of n nodes.
func fddBudget(n int) int {
	return min(100_000+n*n/4, 100_000_000)
}

// BenchmarkSpecializeFDD times the FDD rebuild of each composition.
// SpecializeFDD only reads the node array it replaces, so every
// iteration rebuilds a shallow copy of the same optimized tree.
func BenchmarkSpecializeFDD(b *testing.B) {
	for _, c := range benchCompositions(b) {
		b.Run(c.name, func(b *testing.B) {
			budget := fddBudget(len(c.prog.Exprs))
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				pr := *c.prog
				if !pr.SpecializeFDD(budget) {
					b.Fatal("over budget")
				}
				nodes = len(pr.Exprs)
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// compiledSink keeps BenchmarkCompile's result live.
var compiledSink *Compiled

// BenchmarkCompile times lowering each composition's final diagram
// (rebuilt and optimized, as the fuse pass leaves it) into matchers.
func BenchmarkCompile(b *testing.B) {
	for _, c := range benchCompositions(b) {
		b.Run(c.name, func(b *testing.B) {
			pr := c.prog.Clone()
			if !pr.SpecializeFDD(fddBudget(len(pr.Exprs))) {
				b.Fatal("over budget")
			}
			pr.Optimize()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				compiledSink = Compile(pr)
			}
			b.ReportMetric(float64(len(pr.Exprs)), "nodes")
		})
	}
}
