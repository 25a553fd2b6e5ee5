package mgmt

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestNTenantIsolationUnderRace runs many tenants through the live
// pump while control-plane goroutines hammer each tenant's handlers
// and one tenant hot-swaps repeatedly. Under -race this is the whole
// management seam at once: HTTP-equivalent reads, budgeted capacity
// writes, per-tenant swaps, and SyncDo's round-boundary drain, all
// concurrent. The final conservation check
// per tenant proves no tenant's packets leaked into another's
// counters.
func TestNTenantIsolationUnderRace(t *testing.T) {
	const (
		tenants   = 6
		perSrc    = 20000
		hammering = 40
	)
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenants; i++ {
		mustCreate(t, p, fmt.Sprintf("t%d", i), tenantConfig(perSrc, 128))
	}
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	// Per-tenant control hammer: reads and budgeted capacity writes.
	for i := 0; i < tenants-1; i++ {
		id := fmt.Sprintf("t%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			caps := []string{"64", "256", "128"}
			for n := 0; n < hammering; n++ {
				if _, err := p.ReadHandler(id, "q", "length"); err != nil {
					t.Errorf("%s read: %v", id, err)
					return
				}
				if err := p.WriteHandler(id, "q", "capacity", caps[n%len(caps)]); err != nil {
					t.Errorf("%s write: %v", id, err)
					return
				}
				if _, err := p.TenantReport(id); err != nil {
					t.Errorf("%s report: %v", id, err)
					return
				}
			}
		}()
	}
	// One tenant hot-swaps in a loop while the others forward.
	swapID := fmt.Sprintf("t%d", tenants-1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 10; n++ {
			if err := p.Swap(swapID, tenantConfig(perSrc, 64+n)); err != nil {
				t.Errorf("swap %s: %v", swapID, err)
				return
			}
		}
	}()
	wg.Wait()

	// Wait for every tenant's source to exhaust.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		for {
			v, err := p.ReadHandler(id, "src", "packets_out")
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if n, _ := strconv.ParseInt(v, 10, 64); n >= perSrc {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never exhausted its source (%s/%d)", id, v, perSrc)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p.Stop()

	// Per-tenant conservation: src out == delivered + queue drops,
	// exactly, for every tenant — including the swapper, whose source
	// progress transplants across each of its ten incarnations.
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		emitted := readInt(t, p, id, "src", "packets_out")
		delivered := readInt(t, p, id, "d", "packets_in")
		drops := readInt(t, p, id, "q", "drops")
		if emitted != perSrc {
			t.Errorf("%s emitted %d, want %d", id, emitted, perSrc)
		}
		if delivered+drops != emitted {
			t.Errorf("%s: delivered %d + drops %d != emitted %d", id, delivered, drops, emitted)
		}
	}
}
