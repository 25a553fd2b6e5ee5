package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/mgmt"
	"repro/internal/packet"
)

// The plane difftest: a randomized create/swap/delete sequence is
// applied to a PlaneBed and to an independent reference, with frames
// injected between every operation, and every tenant device must emit
// packet-for-packet identical egress. The reference builds each live
// tenant alone from its raw configuration text — no fusion, no shared
// diagrams, no config cache, no splice — which the paper's combine
// makes a complete oracle: combining is pure namespacing over static
// configurations (§5.1, §7.2). One reference thus checks incremental
// install, fusion and cross-tenant sharing at once, and any
// splice/remove/transplant or sharing bug shows up as a byte diff, not
// a flaky counter.

// planeVariants is the ruleset pool: small, so collisions exercise
// sharing and the config cache.
const planeVariants = 4

// planeVariantPort is the UDP port variant v alone forwards.
func planeVariantPort(v int) uint16 { return uint16(2000 + v) }

// planeTestConfig is a classifier-chain tenant (the shape fusion and
// sharing act on): filter, classify, queue, transmit. Variant v
// replaces the tftp rule with an allow for its own port, so each
// variant forwards a frame no other variant does and the egress shows
// which configuration is live.
func planeTestConfig(variant int) string {
	rules := append([]string(nil), iprouter.FirewallRules()...)
	rules[10] = fmt.Sprintf("allow dst host 10.0.0.2 && udp && dst port %d", planeVariantPort(variant))
	return fmt.Sprintf(`pd :: PollDevice(eth0) -> flt :: IPFilter(%s) -> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(64) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`, strings.Join(rules, ", "))
}

// planeTestFrame builds a UDP frame to the bastion host's dport with a
// distinguishing sequence in its last payload bytes, so captured
// streams detect reordering and cross-tenant leaks, not just counts.
func planeTestFrame(seq int, dport uint16) []byte {
	f := IPFrame(packet.MakeIP4(192, 0, 2, 7), packet.MakeIP4(10, 0, 0, 2), 3456, dport, 26)
	f[len(f)-2] = byte(seq >> 8)
	f[len(f)-1] = byte(seq)
	return f
}

// refPlane is the independent reference for a PlaneBed: one scheduler
// per live tenant, each driving that tenant's router built alone.
// Devices are memoized per (tenant, device) name like the bed's, so a
// tenant that is swapped, or deleted and re-created, keeps one egress
// capture.
type refPlane struct {
	reg     *core.Registry
	tenants map[string]*core.Scheduler
	devs    map[string]*PlaneDevice
}

func newRefPlane() *refPlane {
	return &refPlane{reg: elements.NewRegistry(), tenants: map[string]*core.Scheduler{}, devs: map[string]*PlaneDevice{}}
}

func (r *refPlane) device(tenant, dev string) *PlaneDevice {
	key := tenant + ":" + dev
	d, ok := r.devs[key]
	if !ok {
		d = &PlaneDevice{name: key}
		r.devs[key] = d
	}
	return d
}

// install builds tenant id from its raw text and replaces whatever ran
// before. No state is carried: the difftest settles every queue before
// each operation.
func (r *refPlane) install(id, text string) error {
	g, err := lang.ParseRouter(text, "tenant.click")
	if err != nil {
		return err
	}
	rt, err := core.Build(g, r.reg, core.BuildOptions{Env: map[string]interface{}{
		"device:eth0": r.device(id, "eth0"),
		"device:eth1": r.device(id, "eth1"),
	}})
	if err != nil {
		return err
	}
	r.tenants[id] = core.NewScheduler(rt)
	return nil
}

// settle runs every tenant's router until its ingress backlog drains
// and it goes idle.
func (r *refPlane) settle(maxRounds int) error {
	for id, sched := range r.tenants {
		in := r.device(id, "eth0")
		settled := false
		for i := 0; i < maxRounds && !settled; i++ {
			settled = sched.RunUntilIdle(4096) == 0 && in.Pending() == 0
		}
		if !settled {
			return fmt.Errorf("reference tenant %s did not settle: %d frames pending", id, in.Pending())
		}
	}
	return nil
}

// diffPlanes drives the same randomized operation sequence on bed and
// ref and fails on any divergence: operation outcome or forwarded
// frame bytes per device.
func diffPlanes(t *testing.T, bed *PlaneBed, ref *refPlane, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const idPool = 6
	live := map[string]bool{}
	seq := 0
	// One frame to the DNS port every variant forwards and one to each
	// variant's own port. Each side gets its own copies, since a
	// device hands injected slices to the router as packet payloads.
	frames := func() [][]byte {
		f := [][]byte{planeTestFrame(seq, 53)}
		for v := 0; v < planeVariants; v++ {
			f = append(f, planeTestFrame(seq+1+v, planeVariantPort(v)))
		}
		return f
	}

	for step := 0; step < steps; step++ {
		id := fmt.Sprintf("t%d", rng.Intn(idPool))
		variant := rng.Intn(planeVariants)
		var err error
		var op string
		switch {
		case !live[id]:
			op = "create"
			err = bed.Plane.Create(id, planeTestConfig(variant), mgmt.Limits{})
			if err == nil {
				err = ref.install(id, planeTestConfig(variant))
			}
			live[id] = true
		case rng.Intn(3) == 0:
			op = "delete"
			err = bed.Plane.Delete(id)
			delete(ref.tenants, id)
			delete(live, id)
		default:
			op = "swap"
			err = bed.Plane.Swap(id, planeTestConfig(variant))
			if err == nil {
				err = ref.install(id, planeTestConfig(variant))
			}
		}
		if err != nil {
			t.Fatalf("step %d: %s %s: %v", step, op, id, err)
		}
		// Load every live tenant after each operation; the same frames
		// go to both sides.
		for tid := range live {
			bed.Device(tid, "eth0").Inject(frames()...)
			ref.device(tid, "eth0").Inject(frames()...)
		}
		seq += 1 + planeVariants
		if err := bed.Settle(1 << 16); err != nil {
			t.Fatal(err)
		}
		if err := ref.settle(1 << 16); err != nil {
			t.Fatal(err)
		}
	}

	// Every device either side ever bound must have emitted identical
	// byte streams.
	for i := 0; i < idPool; i++ {
		id := fmt.Sprintf("t%d", i)
		got := bed.Device(id, "eth1").Captured()
		want := ref.device(id, "eth1").Captured()
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames from the plane, %d from the reference", id, len(got), len(want))
		}
		for k := range got {
			if !bytes.Equal(got[k], want[k]) {
				t.Fatalf("%s frame %d differs:\n  plane     %x\n  reference %x", id, k, got[k], want[k])
			}
		}
		if live[id] && len(got) == 0 {
			t.Errorf("%s: live tenant forwarded nothing", id)
		}
	}
}

// TestIncrementalInstallEquivalence is the difftest: the incremental,
// fusing, sharing plane against tenants built alone from their text.
func TestIncrementalInstallEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			bed, err := NewPlaneBed()
			if err != nil {
				t.Fatal(err)
			}
			diffPlanes(t, bed, newRefPlane(), seed, 40)
			if seed != 99 {
				return
			}
			// Seed 99 ends with tenants sharing a ruleset, so the plane
			// must actually have shared something: more references than
			// resident programs means tenants point at one canonical
			// diagram. (Identical config texts are deduplicated by the
			// config cache before reaching the intern table, so intern
			// hits are not the signal — reference counts are.)
			if s := bed.Plane.SharingStats(); s.Refs <= s.Programs || s.UnsharedNodes <= s.ResidentNodes {
				t.Errorf("plane shows no cross-tenant sharing: %+v", s)
			}
		})
	}
}
