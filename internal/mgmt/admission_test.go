package mgmt

import (
	"fmt"
	"sync"
	"testing"
)

// TestIncrementalAdmissionUnderRace hammers the incremental control
// path from many goroutines while the plane's pump runs: each
// goroutine owns a disjoint slice of tenant IDs and loops
// create → swap → delete against the live plane, with a long-lived
// tenant forwarding throughout. Under -race this drives every splice,
// transplant, and removal through SyncDo against the running loop,
// plus the shared parse cache and intern table under the plane lock.
// The survivors' conservation counters prove no operation corrupted a
// neighbor.
func TestIncrementalAdmissionUnderRace(t *testing.T) {
	const (
		hammers = 4
		perWkr  = 3
		rounds  = 8
		perSrc  = 5000
	)
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "anchor", tenantConfig(perSrc, 128))
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	for w := 0; w < hammers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				for k := 0; k < perWkr; k++ {
					id := fmt.Sprintf("w%dk%d", w, k)
					if err := p.Create(id, tenantConfig(100, 32), Limits{}); err != nil {
						t.Errorf("create %s: %v", id, err)
						return
					}
					if err := p.Swap(id, tenantConfig(100, 64)); err != nil {
						t.Errorf("swap %s: %v", id, err)
						return
					}
				}
				for k := 0; k < perWkr; k++ {
					id := fmt.Sprintf("w%dk%d", w, k)
					if err := p.Delete(id); err != nil {
						t.Errorf("delete %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	p.Stop()
	drain(p)

	if got := len(p.Tenants()); got != 1 {
		t.Fatalf("%d tenants survive churn, want 1 (anchor)", got)
	}
	emitted := readInt(t, p, "anchor", "src", "packets_out")
	delivered := readInt(t, p, "anchor", "d", "packets_in")
	drops := readInt(t, p, "anchor", "q", "drops")
	if emitted != perSrc {
		t.Errorf("anchor emitted %d, want %d", emitted, perSrc)
	}
	if delivered+drops != emitted {
		t.Errorf("anchor: delivered %d + drops %d != emitted %d", delivered, drops, emitted)
	}

	rep := p.Report()
	wantOps := int64(hammers * rounds * perWkr)
	if rep.Create.Count != wantOps+1 || rep.Swap.Count != wantOps || rep.Delete.Count != wantOps {
		t.Errorf("op counts create=%d swap=%d delete=%d, want %d+1/%d/%d",
			rep.Create.Count, rep.Swap.Count, rep.Delete.Count, wantOps, wantOps, wantOps)
	}
	// Every churn round after the first re-admits cached texts.
	if rep.ConfigCacheHits == 0 {
		t.Error("no config-cache hits across identical churn rounds")
	}
}
