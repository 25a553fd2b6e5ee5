package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/iprouter"
	"repro/internal/mgmt"
	"repro/internal/packet"
)

// The incremental-install difftest: a randomized create/swap/delete
// sequence applied simultaneously to an incremental plane and a
// from-scratch FullRebuild plane, with frames injected between every
// operation, must produce packet-for-packet identical egress on every
// tenant device. This is the replay-corpus methodology pointed at the
// control plane — the baseline plane rebuilds the world each time, so
// any splice/remove/transplant bug shows up as a byte diff, not a
// flaky counter.

// planeTestConfig is a classifier-chain tenant (the shape fusion and
// sharing act on): filter, classify, queue, transmit.
func planeTestConfig(variant int) string {
	rules := append([]string(nil), iprouter.FirewallRules()...)
	if variant > 0 {
		rules[10] = fmt.Sprintf("deny udp && dst port %d", 2000+variant%60000)
	}
	return fmt.Sprintf(`pd :: PollDevice(eth0) -> flt :: IPFilter(%s) -> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(64) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`, strings.Join(rules, ", "))
}

// planeTestFrame builds the rule-16 frame with a distinguishing
// sequence byte, so captured streams detect reordering and cross-tenant
// leaks, not just counts.
func planeTestFrame(seq int) []byte {
	f := IPFrame(packet.MakeIP4(192, 0, 2, 7), packet.MakeIP4(10, 0, 0, 2), 3456, 53, 26)
	f[len(f)-2] = byte(seq >> 8)
	f[len(f)-1] = byte(seq)
	return f
}

// diffPlanes drives the same randomized operation sequence on two
// PlaneBeds and fails on any divergence: operation outcome, forwarded
// frame bytes per device, or tenant survivor set.
func diffPlanes(t *testing.T, a, b *PlaneBed, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const idPool = 6
	live := map[string]bool{}
	seq := 0

	inject := func(bed *PlaneBed, id string, n int) {
		frames := make([][]byte, n)
		for k := range frames {
			frames[k] = planeTestFrame(seq + k)
		}
		bed.Device(id, "eth0").Inject(frames...)
	}
	settle := func() {
		t.Helper()
		if err := a.Settle(1 << 16); err != nil {
			t.Fatal(err)
		}
		if err := b.Settle(1 << 16); err != nil {
			t.Fatal(err)
		}
	}

	for step := 0; step < steps; step++ {
		id := fmt.Sprintf("t%d", rng.Intn(idPool))
		variant := rng.Intn(4) // small pool: collisions exercise sharing and the config cache
		var errA, errB error
		var op string
		switch {
		case !live[id]:
			op = "create"
			errA = a.Plane.Create(id, planeTestConfig(variant), mgmt.Limits{})
			errB = b.Plane.Create(id, planeTestConfig(variant), mgmt.Limits{})
			live[id] = true
		case rng.Intn(3) == 0:
			op = "delete"
			errA = a.Plane.Delete(id)
			errB = b.Plane.Delete(id)
			delete(live, id)
		default:
			op = "swap"
			errA = a.Plane.Swap(id, planeTestConfig(variant))
			errB = b.Plane.Swap(id, planeTestConfig(variant))
		}
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d: %s %s diverged: %v vs %v", step, op, id, errA, errB)
		}
		if errA != nil {
			t.Fatalf("step %d: %s %s: %v", step, op, id, errA)
		}
		// Load every live tenant after each operation; the same frames
		// go to both planes.
		for tid := range live {
			inject(a, tid, 2)
			inject(b, tid, 2)
		}
		seq += 2
		settle()
	}

	// Final comparison: every device either plane ever bound must have
	// emitted identical byte streams.
	for i := 0; i < idPool; i++ {
		id := fmt.Sprintf("t%d", i)
		capA := a.Device(id, "eth1").Captured()
		capB := b.Device(id, "eth1").Captured()
		if len(capA) != len(capB) {
			t.Fatalf("%s: %d frames on incremental plane, %d on baseline", id, len(capA), len(capB))
		}
		for k := range capA {
			if !bytes.Equal(capA[k], capB[k]) {
				t.Fatalf("%s frame %d differs:\n  inc  %x\n  base %x", id, k, capA[k], capB[k])
			}
		}
		if live[id] && len(capA) == 0 {
			t.Errorf("%s: live tenant forwarded nothing", id)
		}
	}
}

// TestIncrementalInstallEquivalence is the difftest: incremental
// splice/swap/remove versus full rebuild.
func TestIncrementalInstallEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			a, err := NewPlaneBed(PlaneBedOptions{Capture: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewPlaneBed(PlaneBedOptions{Capture: true, FullRebuild: true})
			if err != nil {
				t.Fatal(err)
			}
			diffPlanes(t, a, b, seed, 40)
		})
	}
}

// TestSharedFDDEquivalence checks that cross-tenant classifier sharing
// is purely an optimization: a sharing plane and a NoShare plane fed
// the same operations and frames emit identical egress.
func TestSharedFDDEquivalence(t *testing.T) {
	a, err := NewPlaneBed(PlaneBedOptions{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlaneBed(PlaneBedOptions{Capture: true, NoShare: true})
	if err != nil {
		t.Fatal(err)
	}
	diffPlanes(t, a, b, 99, 40)

	// The sharing plane must actually have shared something: more
	// references than resident programs means tenants are pointing at
	// one canonical diagram. (Identical config *texts* are deduplicated
	// by the parse cache before ever reaching the intern table, so
	// intern hits are not the signal — reference counts are.)
	if s := a.Plane.SharingStats(); s.Refs <= s.Programs || s.UnsharedNodes <= s.ResidentNodes {
		t.Errorf("sharing plane shows no cross-tenant sharing: %+v", s)
	}
	if s := b.Plane.SharingStats(); s.Programs != 0 {
		t.Errorf("NoShare plane interned %d programs", s.Programs)
	}
}
