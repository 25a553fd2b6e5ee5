package elements

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// agnosticArgs gives configuration arguments to the agnostic classes
// that need some; InfiniteSource's frames are Ethernet/IP/UDP addressed
// to 0:a0:c9:2:2:2.
var agnosticArgs = map[string]string{
	"Align":           "4, 0",
	"CheckPaint":      "1",
	"EtherEncap":      "0800, 0:1:2:3:4:5, 6:7:8:9:a:b",
	"FixIPSrc":        "10.0.0.1",
	"GetIPAddress":    "16",
	"HostEtherFilter": "0:a0:c9:2:2:2",
	"IPGWOptions":     "10.0.0.1",
	"IPInputCombo":    "1, 18.26.4.255, 16",
	"Paint":           "1",
	"PaintTee":        "1",
	"Strip":           "14",
	"Unstrip":         "14",
}

// A class registered agnostic must run in push and in pull context. The
// walk covers every registered class whose first input and first output
// are agnostic and that takes one input (Idle, which caps ports and
// never pulls, takes none), so a class added later is held to it too: it
// must build and run to idle in both contexts without panicking,
// conserve packets at every element, and deliver the same packets and
// bytes whichever side of the Queue it sits on and whatever the burst.
func TestAgnosticClassesRunInPushAndPullContext(t *testing.T) {
	reg := NewRegistry()
	walked := 0
	for _, class := range reg.Classes() {
		spec, _ := reg.Lookup(class)
		in, out, _ := strings.Cut(spec.Processing, "/")
		nin, nout, _ := reg.PortCounts(class, agnosticArgs[class])
		if !strings.HasPrefix(in, "a") || !strings.HasPrefix(out, "a") || nin.Min != 1 || !nout.Contains(1) {
			continue
		}
		walked++
		x := fmt.Sprintf("x :: %s(%s)", class, agnosticArgs[class])
		delivered := map[string]bool{}
		for _, config := range []string{
			"src :: InfiniteSource(100) -> " + x + " -> q :: Queue -> u :: Unqueue -> d :: Discard;",
			"src :: InfiniteSource(100) -> q :: Queue -> " + x + " -> u :: Unqueue -> d :: Discard;",
		} {
			for _, burst := range []int{1, 8, 32} {
				rt, err := core.BuildFromText(config, class, reg, core.BuildOptions{Burst: burst})
				if err != nil {
					t.Fatalf("%s: %v", class, err)
				}
				rt.RunUntilIdle(1000)
				for _, e := range rt.Elements() {
					name := e.(interface{ Name() string }).Name()
					pin, _ := rt.ReadHandler(name + ".packets_in")
					pout, _ := rt.ReadHandler(name + ".packets_out")
					drops, _ := rt.ReadHandler(name + ".drops")
					var a, b, c int
					fmt.Sscan(pin+" "+pout+" "+drops, &a, &b, &c)
					if name != "src" && a != b+c {
						t.Errorf("%s burst %d: %s took %d packets, emitted %d, dropped %d\n%s", class, burst, name, a, b, c, config)
					}
				}
				if q := rt.Find("q").(*Queue); q.Len() != 0 {
					t.Errorf("%s burst %d: idle with %d packets still queued\n%s", class, burst, q.Len(), config)
				}
				pkts, _ := rt.ReadHandler("d.packets_in")
				bytes, _ := rt.ReadHandler("d.bytes_in")
				delivered[pkts+" packets, "+bytes+" bytes"] = true
			}
		}
		if len(delivered) != 1 {
			t.Errorf("%s: delivery depends on context or burst: %v", class, delivered)
		}
	}
	if walked < 15 {
		t.Errorf("walked only %d agnostic classes", walked)
	}
}

// An idle pull path is free in the cost model at any burst: a simple
// element is charged for packets it handles, not for polls that find
// its upstream Queue empty.
func TestSimpleElementOnEmptyQueueChargesNothing(t *testing.T) {
	for _, burst := range []int{1, 8} {
		rt, err := core.BuildFromText("i :: Idle -> q :: Queue -> c :: Counter -> u :: Unqueue -> d :: Discard;",
			"t", NewRegistry(), core.BuildOptions{Burst: burst})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			rt.RunTaskRound()
		}
		if v, _ := rt.ReadHandler("c.cycles"); v != "0" {
			t.Errorf("burst %d: c.cycles = %s after polling an empty Queue", burst, v)
		}
	}
}
