package packet

import (
	"sync"
	"testing"
)

// TestConcurrentCloneUniqueifyKill churns one packet's refcount from
// many goroutines: clone, take a private copy, scribble on it, drop it.
// Run under -race it proves the copy-on-write protocol is sound when
// clones of one packet live on different goroutines (the run loop, a
// backend pump, a test driver).
func TestConcurrentCloneUniqueifyKill(t *testing.T) {
	base := New(make([]byte, 64))
	const goroutines, rounds = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c := base.Clone()
				c.Uniqueify()
				c.WritableData()[0] = byte(g)
				c.Kill()
			}
		}(g)
	}
	wg.Wait()
	if base.Shared() {
		t.Error("refcount did not return to 1 after all clones died")
	}
	if base.Data()[0] != 0 {
		t.Error("a clone's write leaked into the shared original")
	}
	base.Kill()
}

// TestConcurrentPoolChurn allocates and frees pool-sized packets from
// many goroutines at once, exercising the free list's mutex under
// -race.
func TestConcurrentPoolChurn(t *testing.T) {
	poolReset()
	const goroutines, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]*Packet, 0, 16)
			for i := 0; i < rounds; i++ {
				held = append(held, Make(64, 128, 64))
				if len(held) == cap(held) {
					for _, p := range held {
						p.Kill()
					}
					held = held[:0]
				}
			}
			for _, p := range held {
				p.Kill()
			}
		}()
	}
	wg.Wait()
	if n := poolCount(); n == 0 || n > poolMax {
		t.Errorf("pool retains %d buffers, want 1..%d", n, poolMax)
	}
}
