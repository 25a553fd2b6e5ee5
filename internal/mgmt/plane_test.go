package mgmt

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// tenantConfig is a self-driving tenant: a bounded source feeding a
// queue drained into a counter sink, so traffic flows with no devices
// and conservation (src out == delivered + queue drops) is checkable
// per tenant.
func tenantConfig(limit, qcap int) string {
	return fmt.Sprintf(
		"src :: InfiniteSource(%d) -> q :: Queue(%d) -> u :: Unqueue -> d :: Discard;",
		limit, qcap)
}

func mustCreate(t *testing.T, p *Plane, id, cfg string) {
	t.Helper()
	if err := p.Create(id, cfg, Limits{}); err != nil {
		t.Fatalf("create %s: %v", id, err)
	}
}

func readInt(t *testing.T, p *Plane, id, elem, h string) int64 {
	t.Helper()
	v, err := p.ReadHandler(id, elem, h)
	if err != nil {
		t.Fatalf("read %s %s.%s: %v", id, elem, h, err)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("read %s %s.%s = %q", id, elem, h, v)
	}
	return n
}

// drain runs the plane's dataplane until every tenant source is
// exhausted.
func drain(p *Plane) {
	for p.Scheduler().RunUntilIdle(1<<20) > 0 {
	}
}

// The dataplane is one run loop: a worker count above one is rejected,
// not silently ignored; 0 and 1 (what the benchmark sets) are accepted.
func TestNewPlaneRejectsWorkers(t *testing.T) {
	for _, n := range []int{0, 1} {
		if _, err := NewPlane(Options{Workers: n}); err != nil {
			t.Errorf("Workers %d: %v", n, err)
		}
	}
	if _, err := NewPlane(Options{Workers: 2}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("Workers 2: err = %v, want a rejection naming Workers", err)
	}
}

func TestTenantLifecycle(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Create two tenants and run them dry.
	mustCreate(t, p, "t1", tenantConfig(5000, 100))
	mustCreate(t, p, "t2", tenantConfig(3000, 100))
	drain(p)
	for id, want := range map[string]int64{"t1": 5000, "t2": 3000} {
		emitted := readInt(t, p, id, "src", "packets_out")
		delivered := readInt(t, p, id, "d", "packets_in")
		drops := readInt(t, p, id, "q", "drops")
		if emitted != want {
			t.Errorf("%s emitted %d, want %d", id, emitted, want)
		}
		if delivered+drops != emitted {
			t.Errorf("%s: delivered %d + drops %d != emitted %d", id, delivered, drops, emitted)
		}
	}

	// Hot-swap t1 to a quiet config with a different queue capacity:
	// its counters must transplant (zero loss) and t2 is untouched.
	t2Before := readInt(t, p, "t2", "d", "packets_in")
	if err := p.Swap("t1", tenantConfig(0, 64)); err != nil {
		t.Fatalf("swap t1: %v", err)
	}
	if got := readInt(t, p, "t1", "d", "packets_in"); got != 5000-readInt(t, p, "t1", "q", "drops") {
		t.Errorf("t1 delivered %d after swap, counters not transplanted", got)
	}
	if v, _ := p.ReadHandler("t1", "q", "capacity"); v != "64" {
		t.Errorf("t1 q.capacity = %q after swap, want 64", v)
	}
	if got := readInt(t, p, "t2", "d", "packets_in"); got != t2Before {
		t.Errorf("t2 delivered moved %d -> %d across t1's swap", t2Before, got)
	}
	info := p.Tenants()
	if len(info) != 2 || info[0].ID != "t1" || info[0].Swaps != 1 || info[1].Swaps != 0 {
		t.Errorf("tenants = %+v", info)
	}

	// Delete t1; t2's state survives the reinstall.
	if err := p.Delete("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadHandler("t1", "d", "packets_in"); err == nil {
		t.Error("t1 still readable after delete")
	}
	if got := readInt(t, p, "t2", "d", "packets_in"); got != t2Before {
		t.Errorf("t2 delivered moved %d -> %d across t1's delete", t2Before, got)
	}
	if err := p.Delete("t1"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestTenantAdmissionLimits(t *testing.T) {
	p, err := NewPlane(Options{Limits: Limits{MaxQueueCapacity: 500, MaxElements: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Create("big", tenantConfig(0, 600), Limits{}); err == nil {
		t.Error("over-budget queue admitted")
	}
	var b strings.Builder
	for i := 0; i < 11; i++ {
		fmt.Fprintf(&b, "s%d :: InfiniteSource(0) -> d%d :: Discard;\n", i, i)
	}
	if err := p.Create("many", b.String(), Limits{}); err == nil {
		t.Error("over-budget element count admitted")
	}
	if err := p.Create("bad id!", tenantConfig(0, 10), Limits{}); err == nil {
		t.Error("hostile tenant id admitted")
	}
	if err := p.Create("a/b", tenantConfig(0, 10), Limits{}); err == nil {
		t.Error("tenant id with '/' admitted")
	}

	// Within budget admits, and the runtime capacity budget holds: the
	// write that would blow the budget fails atomically, one within it
	// lands.
	mustCreate(t, p, "ok", tenantConfig(0, 400))
	if err := p.WriteHandler("ok", "q", "capacity", "600"); err == nil {
		t.Error("over-budget capacity write accepted")
	}
	if v, _ := p.ReadHandler("ok", "q", "capacity"); v != "400" {
		t.Errorf("capacity changed to %q by rejected write", v)
	}
	if err := p.WriteHandler("ok", "q", "capacity", "450"); err != nil {
		t.Errorf("in-budget capacity write rejected: %v", err)
	}
	if v, _ := p.ReadHandler("ok", "q", "capacity"); v != "450" {
		t.Errorf("capacity = %q, want 450", v)
	}
}

// TestTenantNamespaceCollisions checks that two tenants using the same
// element and device names stay fully separate.
func TestTenantNamespaceCollisions(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both tenants bind "eth0" — the device rewrite must scope them.
	cfg := "fd :: PollDevice(eth0) -> q :: Queue(10) -> td :: ToDevice(eth0);"
	mustCreate(t, p, "a", cfg)
	mustCreate(t, p, "b", cfg)
	if _, err := p.ReadHandler("a", "q", "length"); err != nil {
		t.Errorf("tenant a: %v", err)
	}
	if _, err := p.ReadHandler("b", "q", "length"); err != nil {
		t.Errorf("tenant b: %v", err)
	}
	// The rewritten config names the scoped device.
	if v, _ := p.ReadHandler("a", "fd", "config"); !strings.Contains(v, "a:eth0") {
		t.Errorf("tenant a device config = %q, want scoped a:eth0", v)
	}
	els, err := p.Elements("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 3 {
		t.Errorf("tenant a has %d elements, want 3: %+v", len(els), els)
	}
	for _, el := range els {
		if strings.Contains(el.Name, "a/") {
			t.Errorf("element name %q not tenant-relative", el.Name)
		}
	}
}

// TestTenantReport checks the per-tenant telemetry snapshot.
func TestTenantReport(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "t1", tenantConfig(1000, 100))
	drain(p)
	rep, err := p.TenantReport("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Elements) != 4 {
		t.Fatalf("report has %d elements, want 4", len(rep.Elements))
	}
	var srcOut int64
	for _, e := range rep.Elements {
		if e.Name == "src" {
			srcOut = e.PacketsOut
		}
		if strings.Contains(e.Name, "/") {
			t.Errorf("report element %q not tenant-relative", e.Name)
		}
	}
	if srcOut != 1000 {
		t.Errorf("report src.packets_out = %d, want 1000", srcOut)
	}
	if rep.Totals.PacketsOut == 0 {
		t.Error("report totals empty")
	}
	if _, err := p.TenantReport("ghost"); err == nil {
		t.Error("report for unknown tenant succeeded")
	}
}
