package mgmt

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/iprouter"
	"repro/internal/packet"
)

// churnTemplates is how many deployed rulesets the fleet rotates over.
const churnTemplates = 8

// churnConfig is the benchmark's ctl-churn tenant: the §4 firewall with
// rule 11 replaced by an allow for one UDP port, feeding a queue and two
// devices. qcap sizes the Queue, so a swap shows in its config handler.
func churnConfig(port, qcap int) string {
	return churnRuleConfig(fmt.Sprintf("allow udp && dst port %d", port), qcap)
}

// churnRuleConfig is the ctl-churn tenant with rule as its rule 11.
func churnRuleConfig(rule string, qcap int) string {
	rules := append([]string(nil), iprouter.FirewallRules()...)
	rules[10] = rule
	return fmt.Sprintf(`pd :: PollDevice(eth0) -> flt :: IPFilter(%s) -> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(%d) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`, strings.Join(rules, ", "), qcap)
}

// fleet returns a plane hosting n ctl-churn tenants on the deployed
// rulesets.
func fleet(tb testing.TB, n int) *Plane {
	tb.Helper()
	p, err := NewPlane(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := p.Create(fmt.Sprintf("t%03d", i), churnConfig(2000+i%churnTemplates, 64), Limits{}); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// coldSeq numbers the never-seen rulesets of the process.
var coldSeq int

// coldConfigs returns n ctl-churn tenants on rulesets no plane of the
// process has seen: like ctl-churn's never-seen rulesets, each admits
// UDP to its own port from 3000 on, and past 62 000 of them also names
// a source port, so no two are equal.
func coldConfigs(n int) []string {
	out := make([]string, n)
	for i := range out {
		rule := fmt.Sprintf("allow udp && dst port %d", 3000+coldSeq%62000)
		if coldSeq >= 62000 {
			rule += fmt.Sprintf(" && src port %d", coldSeq/62000)
		}
		out[i] = churnRuleConfig(rule, 64)
		coldSeq++
	}
	return out
}

// planeOp is one per-tenant operation. Each call works on the next
// tenant in turn and leaves the fleet's size as it found it. split,
// when set, accumulates the time of the call's two parts. prep, when
// set, readies n calls before the timer starts; a call it did not
// ready makes its own input.
type planeOp struct {
	name  string
	do    func()
	prep  func(n int)
	split *[2]time.Duration
	parts [2]string
}

// planeOps returns the per-tenant operations of an n-tenant fleet.
func planeOps(tb testing.TB, p *Plane, n int) []planeOp {
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	var k, swaps int
	next := func() string {
		k = (k + 1) % n
		return fmt.Sprintf("t%03d", k)
	}
	var split [2]time.Duration
	caps := [2]string{"128", "64"}
	var cold []string
	return []planeOp{
		{name: "delete+create", split: &split, parts: [2]string{"delete", "create"}, do: func() {
			id := next()
			t0 := time.Now()
			must(p.Delete(id))
			t1 := time.Now()
			must(p.Create(id, churnConfig(2000+k%churnTemplates, 64), Limits{}))
			split[0] += t1.Sub(t0)
			split[1] += time.Since(t1)
		}},
		{name: "swap", do: func() {
			swaps++
			must(p.Swap(next(), churnConfig(2000+(k+swaps)%churnTemplates, 64)))
		}},
		{name: "capacity", do: func() { must(p.WriteHandler(next(), "q", "capacity", caps[k%2])) }},
		{name: "create-cold", prep: func(n int) { cold = coldConfigs(n) }, do: func() {
			if len(cold) == 0 {
				cold = coldConfigs(1)
			}
			id, text := next(), cold[0]
			cold = cold[1:]
			must(p.Delete(id))
			must(p.Create(id, text, Limits{}))
		}},
	}
}

// BenchmarkPlaneOps times each per-tenant operation at three fleet
// sizes. The plane's claim is O(tenant) per operation, so a column
// should read the same at 8 and 256 tenants. delete+create also reports
// its two parts (delete-ns/op, create-ns/op). create-cold is a delete
// and a create on a never-seen ruleset: parse, fuse, intern and plan
// before the build.
func BenchmarkPlaneOps(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			p := fleet(b, n)
			for _, op := range planeOps(b, p, n) {
				b.Run(op.name, func(b *testing.B) {
					b.ReportAllocs()
					if op.split != nil {
						*op.split = [2]time.Duration{}
					}
					if op.prep != nil {
						op.prep(b.N)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.do()
					}
					if op.split != nil {
						for j, part := range op.parts {
							b.ReportMetric(float64(op.split[j].Nanoseconds())/float64(b.N), part+"-ns/op")
						}
					}
				})
			}
		})
	}
}

// BenchmarkIdleRound times one task round of an idle fleet at three
// sizes. Every tenant's PollDevice polls its empty device; its ToDevice
// sleeps on its empty Queue and is not run.
func BenchmarkIdleRound(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			s := fleet(b, n).Scheduler()
			s.RunRound()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunRound()
			}
		})
	}
}

// TestPlaneOpsAllocsFleetIndependent checks the O(tenant) claim where
// it can be checked exactly: the allocations of a delete+create, a swap
// and a capacity write must not grow with the fleet. (At a plane that
// budgeted capacity over the fleet's live elements, the write at 256
// tenants allocated a list of all of them.)
func TestPlaneOpsAllocsFleetIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256-tenant plane")
	}
	allocs := func(n int) map[string]float64 {
		p := fleet(t, n)
		out := map[string]float64{}
		for _, op := range planeOps(t, p, n) {
			out[op.name] = testing.AllocsPerRun(200, op.do)
		}
		return out
	}
	small, large := allocs(8), allocs(256)
	for name, a := range small {
		if large[name] > a+1 {
			t.Errorf("%s: %.0f allocations at 256 tenants, %.0f at 8", name, large[name], a)
		}
	}
}

// TestChurnLeavesNoResidue runs random creates, swaps, deletes, handler
// writes and reads on eight ids, then checks that the live router holds
// exactly the live tenants: its elements, tasks and names equal the sum
// of the tenants' own subrouters and what a fresh plane built with the
// final fleet holds. Along the way the config handler must always show
// the configuration the tenant runs now.
func TestChurnLeavesNoResidue(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	type live struct {
		text string
		qcap int
	}
	fleetNow := map[string]live{}
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 1200; step++ {
		id := fmt.Sprintf("c%d", r.Intn(8))
		qcap := 16 * (1 + r.Intn(4))
		text := churnConfig(2000+r.Intn(4), qcap)
		_, exists := fleetNow[id]
		var err error
		switch op := r.Intn(4); {
		case !exists:
			err = p.Create(id, text, Limits{})
			fleetNow[id] = live{text, qcap}
		case op == 0:
			err = p.Delete(id)
			delete(fleetNow, id)
		case op == 1:
			err = p.Swap(id, text)
			fleetNow[id] = live{text, qcap}
		case op == 2:
			err = p.WriteHandler(id, "q", "capacity", strconv.Itoa(qcap))
		default:
			_, err = p.ReadHandler(id, "ds", "count")
		}
		if err != nil {
			t.Fatalf("step %d on %s: %v", step, id, err)
		}
		if l, ok := fleetNow[id]; ok {
			if got, err := p.ReadHandler(id, "q", "config"); err != nil || got != strconv.Itoa(l.qcap) {
				t.Fatalf("step %d: %s q.config = %q, %v; want %d", step, id, got, err, l.qcap)
			}
		}
	}

	census := func(p *Plane) [4]int {
		var c [4]int
		p.Scheduler().SyncDo(func() {
			rt := p.Scheduler().Router()
			c[0], c[1], c[2] = rt.Census()
			c[3] = rt.Graph.NumElements()
		})
		return c
	}
	var sum [4]int
	for _, tn := range p.tenants {
		e, tasks, names := tn.sub.Census()
		sum[0], sum[1], sum[2], sum[3] = sum[0]+e, sum[1]+tasks, sum[2]+names, sum[3]+e
	}
	fresh, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id, l := range fleetNow {
		mustCreate(t, fresh, id, l.text)
	}
	got, want := census(p), census(fresh)
	if got != sum || got != want {
		t.Errorf("live router holds %v (elements, tasks, names, graph elements); tenants sum to %v; a fresh plane holds %v", got, sum, want)
	}
	sharing := func(p *Plane) [4]int {
		s := p.SharingStats()
		return [4]int{s.Programs, s.Refs, s.ResidentNodes, s.UnsharedNodes}
	}
	if got, want := sharing(p), sharing(fresh); got != want {
		t.Errorf("sharing (programs, refs, resident, unshared) = %v after churn, %v on a fresh plane", got, want)
	}
	sizes := func(p *Plane) string {
		var b strings.Builder
		for _, ti := range p.Tenants() {
			fmt.Fprintf(&b, "%s:%d ", ti.ID, ti.Elements)
		}
		return b.String()
	}
	if got, want := sizes(p), sizes(fresh); got != want {
		t.Errorf("tenant sizes after churn %s, on a fresh plane %s", got, want)
	}
}

// TestSwapCarriesDiscardCount: a swap keeps same-name, same-type
// elements' counters, Discard's included.
func TestSwapCarriesDiscardCount(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "a", tenantConfig(50, 64))
	drain(p)
	if got := readInt(t, p, "a", "d", "count"); got != 50 {
		t.Fatalf("d.count = %d before the swap, want 50", got)
	}
	if err := p.Swap("a", tenantConfig(50, 32)); err != nil {
		t.Fatal(err)
	}
	if got := readInt(t, p, "a", "d", "count"); got != 50 {
		t.Errorf("d.count = %d after the swap, want 50", got)
	}
}

// TestSwapCarriesRouteCountersNotRoutes: a LookupIPRoute keeps its
// counters across a swap, and routes by the replacement's configured
// table, without the route added through its "add" handler.
func TestSwapCarriesRouteCountersNotRoutes(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := `a :: InfiniteSource(30, 1, 10.0.2.2) -> rt :: LookupIPRoute(10.0.0.0/8 0) -> d :: Discard;
b :: InfiniteSource(20, 1, 192.168.1.1) -> rt;`
	mustCreate(t, p, "a", cfg)
	drain(p)
	if err := p.WriteHandler("a", "rt", "add", "192.168.0.0/16 0"); err != nil {
		t.Fatal(err)
	}
	configured := "0a000000/8 -> 0.0.0.0 port 0\n"
	if got, _ := p.ReadHandler("a", "rt", "table"); got != configured+"c0a80000/16 -> 0.0.0.0 port 0\n" {
		t.Fatalf("rt.table = %q before the swap", got)
	}
	counters := func(when string) {
		if got := readInt(t, p, "a", "rt", "lookups"); got != 50 {
			t.Errorf("rt.lookups = %d %s the swap, want 50", got, when)
		}
		if got := readInt(t, p, "a", "rt", "no_route"); got != 20 {
			t.Errorf("rt.no_route = %d %s the swap, want 20", got, when)
		}
	}
	counters("before")
	if err := p.Swap("a", cfg); err != nil {
		t.Fatal(err)
	}
	drain(p)
	counters("after")
	if got, _ := p.ReadHandler("a", "rt", "table"); got != configured {
		t.Errorf("rt.table = %q after the swap, want only the configured %q", got, configured)
	}
}

// TestPlaneOpsAllocationCeilings bounds the allocations of one
// admission on a 64-tenant ctl-churn fleet, as TestFuseAllocationCeilings
// bounds Fuse's: a warm create and a swap, which instantiate a cached
// template, and a cold create, which parses, fuses, interns and plans a
// never-seen ruleset first. Only the operation itself is counted, not
// the delete that makes room for a create. The cold ceiling sits just
// above the count measured with go1.24 once the classifier compiler
// allocated per program rather than per path or node, which reads
// 954.3 to 954.7 as the map seeds split the tables. Before that a cold
// create cost 1 392; before templates, a warm create cost 171 to 174
// allocations and a cold create 2 684.
func TestPlaneOpsAllocationCeilings(t *testing.T) {
	if packet.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const n, runs = 64, 100
	p := fleet(t, n)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	cold := coldConfigs(runs)
	// allocs averages op's allocations over runs calls, each on the
	// next tenant after an uncounted setup.
	allocs := func(setup, op func(id string, i int)) float64 {
		var before, after runtime.MemStats
		var total uint64
		for i := 0; i < runs; i++ {
			k = (k + 1) % n
			id := fmt.Sprintf("t%03d", k)
			setup(id, i)
			runtime.ReadMemStats(&before)
			op(id, i)
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / runs
	}
	del := func(id string, _ int) { must(p.Delete(id)) }
	for _, c := range []struct {
		name    string
		ceiling float64
		setup   func(string, int)
		op      func(string, int)
	}{
		{"create", 100, del, func(id string, i int) {
			must(p.Create(id, churnConfig(2000+i%churnTemplates, 64), Limits{}))
		}},
		{"swap", 100, func(string, int) {}, func(id string, i int) {
			must(p.Swap(id, churnConfig(2000+(k+i+1)%churnTemplates, 64)))
		}},
		{"create-cold", 960, del, func(id string, i int) { must(p.Create(id, cold[i], Limits{})) }},
	} {
		got := allocs(c.setup, c.op)
		t.Logf("%s: %.1f allocations", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}
