package mgmt

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/iprouter"
)

// churnTemplates is how many deployed rulesets the fleet rotates over.
const churnTemplates = 8

// churnConfig is the benchmark's ctl-churn tenant: the §4 firewall with
// rule 11 replaced by an allow for one UDP port, feeding a queue and two
// devices. qcap sizes the Queue, so a swap shows in its config handler.
func churnConfig(port, qcap int) string {
	rules := append([]string(nil), iprouter.FirewallRules()...)
	rules[10] = fmt.Sprintf("allow udp && dst port %d", port)
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

// planeOp is one per-tenant operation. Each call works on the next
// tenant in turn and leaves the fleet's size as it found it. split,
// when set, accumulates the time of the call's two parts.
type planeOp struct {
	name  string
	do    func()
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
	}
}

// BenchmarkPlaneOps times each per-tenant operation at three fleet
// sizes. The plane's claim is O(tenant) per operation, so a column
// should read the same at 8 and 256 tenants. delete+create also reports
// its two parts (delete-ns/op, create-ns/op).
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
