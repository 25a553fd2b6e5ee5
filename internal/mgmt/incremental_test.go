package mgmt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/iprouter"
	"repro/internal/lang"
)

// TestIncrementalGuardIsolation checks the per-tenant guard-domain
// property the incremental path provides: a runtime configuration
// write in one tenant bumps only that tenant's guard generations, so a
// neighbor's flow fast path is never invalidated by someone else's
// churn. (A full rebuild collapses every tenant into one fresh guard
// domain — that is exactly the cost the spliced path avoids.)
func TestIncrementalGuardIsolation(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "a", tenantConfig(10, 32))
	mustCreate(t, p, "b", tenantConfig(10, 32))

	snap := func(id string) core.GuardSnapshot {
		e := p.Scheduler().Router().Find(id + "/q")
		if e == nil {
			t.Fatalf("no %s/q in combined router", id)
		}
		return e.(interface{ GuardSnapshot() core.GuardSnapshot }).GuardSnapshot()
	}
	a0, b0 := snap("a"), snap("b")
	if err := p.WriteHandler("a", "q", "capacity", "64"); err != nil {
		t.Fatal(err)
	}
	if snap("a") == a0 {
		t.Error("tenant a's guard generations did not move on its own config write")
	}
	if snap("b") != b0 {
		t.Errorf("tenant b's guard generations moved on tenant a's write: %v -> %v", b0, snap("b"))
	}

	// The isolation must survive tenant a being hot-swapped: the
	// replacement adopts a's generation history, not b's, and b still
	// does not move.
	if err := p.Swap("a", tenantConfig(20, 32)); err != nil {
		t.Fatal(err)
	}
	b1 := snap("b")
	if err := p.WriteHandler("a", "q", "capacity", "48"); err != nil {
		t.Fatal(err)
	}
	if snap("b") != b1 {
		t.Error("tenant b's guard generations moved on post-swap tenant a write")
	}
}

// TestIncrementalCanonicalUnparse checks determinism of the combined
// configuration: whatever create/swap/delete history produced a tenant
// set, the canonical combined graph unparses byte-identically. This is
// what makes config archives and diffs meaningful under an incremental
// control plane.
func TestIncrementalCanonicalUnparse(t *testing.T) {
	cfgA, cfgB, cfgC := tenantConfig(10, 16), tenantConfig(20, 32), tenantConfig(30, 64)

	// History 1: plain creates in ID order.
	p1, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p1, "a", cfgA)
	mustCreate(t, p1, "b", cfgB)
	mustCreate(t, p1, "c", cfgC)

	// History 2: out-of-order creates, a deleted tenant, and swaps
	// converging on the same (id, config) set.
	p2, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p2, "c", cfgA)
	mustCreate(t, p2, "x", cfgB)
	mustCreate(t, p2, "a", cfgB)
	if err := p2.Delete("x"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p2, "b", cfgB)
	if err := p2.Swap("c", cfgC); err != nil {
		t.Fatal(err)
	}
	if err := p2.Swap("a", cfgA); err != nil {
		t.Fatal(err)
	}

	unparse := func(p *Plane) string {
		g, err := p.CombinedGraph()
		if err != nil {
			t.Fatal(err)
		}
		return lang.Unparse(g)
	}
	u1, u2 := unparse(p1), unparse(p2)
	if u1 != u2 {
		t.Fatalf("combined unparse differs across histories:\n--- creates in order ---\n%s\n--- churned history ---\n%s", u1, u2)
	}
	for _, id := range []string{"a/", "b/", "c/"} {
		if !strings.Contains(u1, id) {
			t.Errorf("canonical unparse missing tenant prefix %q:\n%s", id, u1)
		}
	}
}

// TestIncrementalOpStatsAndCache checks the control-plane telemetry:
// per-operation latency counters move, tenant reports carry their
// admission and swap latencies, and re-admitting an identical
// configuration hits the parse cache.
func TestIncrementalOpStatsAndCache(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tenantConfig(10, 32)
	mustCreate(t, p, "a", cfg)
	mustCreate(t, p, "b", cfg) // identical text: must hit the cache
	if err := p.Swap("a", tenantConfig(20, 32)); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("b"); err != nil {
		t.Fatal(err)
	}

	rep := p.Report()
	if rep.Create.Count != 2 || rep.Swap.Count != 1 || rep.Delete.Count != 1 {
		t.Fatalf("op counts = %d/%d/%d, want 2/1/1", rep.Create.Count, rep.Swap.Count, rep.Delete.Count)
	}
	if rep.Create.TotalNS <= 0 || rep.Swap.LastNS <= 0 || rep.Delete.LastNS <= 0 {
		t.Errorf("op latencies not recorded: %+v %+v %+v", rep.Create, rep.Swap, rep.Delete)
	}
	if rep.ConfigCacheHits < 1 {
		t.Errorf("config cache hits = %d, want >= 1 (tenant b re-used tenant a's text)", rep.ConfigCacheHits)
	}
	if rep.Tenants != 1 {
		t.Errorf("tenants = %d, want 1", rep.Tenants)
	}

	tr, err := p.TenantReport("a")
	if err != nil {
		t.Fatal(err)
	}
	if tr.CreateNS <= 0 || tr.SwapNS <= 0 {
		t.Errorf("tenant latencies create=%d swap=%d, want both > 0", tr.CreateNS, tr.SwapNS)
	}
	if tr.Swaps != 1 {
		t.Errorf("tenant swaps = %d, want 1", tr.Swaps)
	}
}

// TestIncrementalLifecycleCounts runs a create/swap/delete/create
// lifecycle and pins the surviving tenants' delivered counts. The
// swapped-in source resumes from the 50 packets a already emitted and
// a's Discard carries its 50 across the swap, so it reads 50 + the 40
// beyond them; a deleted neighbour b leaves no trace on c.
func TestIncrementalLifecycleCounts(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "a", tenantConfig(50, 16))
	mustCreate(t, p, "b", tenantConfig(70, 16))
	drain(p)
	if err := p.Swap("a", tenantConfig(90, 16)); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("b"); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "c", tenantConfig(30, 16))
	drain(p)
	if a, c := readInt(t, p, "a", "d", "count"), readInt(t, p, "c", "d", "count"); a != 90 || c != 30 {
		t.Errorf("delivered a=%d c=%d, want 90/30", a, c)
	}
}

// buildFailingConfig passes admission (it parses, fuses, and fits the
// limits) but fails in core.Build: the route table entry is malformed.
const buildFailingConfig = `pd :: PollDevice(eth0) -> r :: LookupIPRoute(bogus) -> q :: Queue(8) -> td :: ToDevice(eth1);`

// TestIncrementalRollbackOnBuildFailure drives the one rollback path
// the plane has: a configuration admitted but refused by core.Build. A
// failed Create and a failed Swap must leave the tenant set, the live
// router, a neighbour's counters, and the sharing table exactly as
// they were, and the tenant whose swap failed keeps forwarding on its
// old configuration.
func TestIncrementalRollbackOnBuildFailure(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "n", tenantConfig(30, 64))
	mustCreate(t, p, "fw", firewallConfig(2000))
	drain(p)
	mustCreate(t, p, "a", tenantConfig(40, 64))

	type snapshot struct {
		tenants  string
		elements int
		neighbor int64
		sharing  classifier.InternStats
	}
	snap := func() snapshot {
		var elems int
		p.Scheduler().SyncDo(func() { elems = len(p.Scheduler().Router().Graph.LiveIndices()) })
		return snapshot{
			tenants:  fmt.Sprint(p.Tenants()),
			elements: elems,
			neighbor: readInt(t, p, "n", "d", "count"),
			sharing:  p.SharingStats(),
		}
	}
	before := snap()
	if before.sharing.Refs == 0 {
		t.Fatalf("firewall tenant interned nothing: %+v", before.sharing)
	}

	if err := p.Create("bad", buildFailingConfig, Limits{}); err == nil {
		t.Fatal("create of an unbuildable config succeeded")
	}
	if got := snap(); got != before {
		t.Errorf("failed create changed the plane:\n  before %+v\n  after  %+v", before, got)
	}
	if err := p.Swap("a", buildFailingConfig); err == nil {
		t.Fatal("swap to an unbuildable config succeeded")
	}
	if got := snap(); got != before {
		t.Errorf("failed swap changed the plane:\n  before %+v\n  after  %+v", before, got)
	}
	drain(p)
	if got := readInt(t, p, "a", "d", "count"); got != 40 {
		t.Errorf("tenant a delivered %d after its failed swap, want 40 on its old config", got)
	}
}

// firewallConfig is a fusable classifier-chain tenant: the §4 firewall
// with rule 11 replaced by an allow for one UDP port, so each port is
// a distinct ruleset.
func firewallConfig(port int) string {
	rules := append([]string(nil), iprouter.FirewallRules()...)
	rules[10] = fmt.Sprintf("allow dst host 10.0.0.2 && udp && dst port %d", port)
	return fmt.Sprintf(`pd :: PollDevice(eth0) -> flt :: IPFilter(%s) -> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(64) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`, strings.Join(rules, ", "))
}

// TestSharingSublinear checks that resident classifier memory grows
// with distinct rulesets, not tenant count: planes of 8 and 32 tenants
// over the same two rulesets hold the same programs and nodes, while
// references — and what private copies would cost — grow with the
// fleet.
func TestSharingSublinear(t *testing.T) {
	stats := func(n int) classifier.InternStats {
		p, err := NewPlane(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			mustCreate(t, p, fmt.Sprintf("t%d", i), firewallConfig(2000+i%2))
		}
		return p.SharingStats()
	}
	small, large := stats(8), stats(32)
	if small.Programs == 0 || small.Programs != large.Programs || small.ResidentNodes != large.ResidentNodes {
		t.Errorf("resident diagrams grew with the fleet: 8 tenants %+v, 32 tenants %+v", small, large)
	}
	if large.Refs != 4*small.Refs {
		t.Errorf("refs = %d at 8 tenants, %d at 32, want 4x", small.Refs, large.Refs)
	}
	for _, s := range []classifier.InternStats{small, large} {
		// Both rulesets carry the same share of the references, so the
		// private-copy cost is refs x the mean nodes per program.
		if s.UnsharedNodes*s.Programs != s.Refs*s.ResidentNodes {
			t.Errorf("unshared nodes %d != refs %d x %d resident nodes / %d programs",
				s.UnsharedNodes, s.Refs, s.ResidentNodes, s.Programs)
		}
	}
}
