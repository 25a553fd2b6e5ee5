package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// act is the per-packet behaviour both test classes below share: "pass"
// forwards, "drop" terminates packets whose first byte is odd, "replace"
// kills each packet and continues with a new one.
func act(b *Base, mode string, p *packet.Packet) *packet.Packet {
	switch mode {
	case "drop":
		if p.Data()[0]&1 == 1 {
			b.Drop(p)
			return nil
		}
	case "replace":
		q := packet.New([]byte{p.Data()[0] + 100, 0xee})
		p.Kill()
		return q
	}
	return p
}

// tAct is written the one way a one-in/one-out element is: SimpleAction.
type tAct struct {
	Base
	mode string
}

func (e *tAct) Configure(args []string) error                { e.mode = args[0]; return nil }
func (e *tAct) SimpleAction(p *packet.Packet) *packet.Packet { return act(&e.Base, e.mode, p) }

// tActRef is the reference: the same element with both burst transfers
// written by hand, as any element that is not a SimpleAction is; its
// scalar transfers are Base's bursts of one.
type tActRef struct {
	Base
	mode string
}

func (e *tActRef) Configure(args []string) error { e.mode = args[0]; return nil }

func (e *tActRef) PushBatch(port int, ps []*packet.Packet) {
	k := 0
	for _, p := range ps {
		e.Work()
		if p = act(&e.Base, e.mode, p); p != nil {
			ps[k] = p
			k++
		}
	}
	e.Output(0).PushBatch(ps[:k])
}

func (e *tActRef) PullBatch(port int, buf []*packet.Packet) int {
	for {
		n, k := e.Input(0).PullBatch(buf), 0
		for _, p := range buf[:n] {
			e.Work()
			if p = act(&e.Base, e.mode, p); p != nil {
				buf[k] = p
				k++
			}
		}
		if k > 0 || n == 0 {
			return k
		}
	}
}

// tBothPull and tBothBatch write SimpleAction and a transfer of their
// own.
type tBothPull struct{ tAct }

func (e *tBothPull) PullBatch(port int, buf []*packet.Packet) int { return e.Input(0).PullBatch(buf) }

type tBothBatch struct{ tAct }

func (e *tBothBatch) PushBatch(port int, ps []*packet.Packet) {}

// tBothNested gets its own PullBatch from a class it embeds.
type tBothNested struct{ tBothPull }

// actRegistry registers mk under the class name X, so the derived and
// the reference run share call-site and target names in the cost model.
func actRegistry(mk func() Element) *Registry {
	reg := batchTestRegistry()
	reg.Register(&Spec{Name: "X", Processing: "a/a", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Exactly(1), graph.Exactly(1)
	}, Make: mk, WorkCycles: 17})
	return reg
}

// runTransfer drives seven packets through X by one of the four
// transfers and returns everything observable: the delivered bytes in
// order, X's statistics, and the cost model's cycle total.
func runTransfer(t *testing.T, mk func() Element, mode, transfer string) string {
	t.Helper()
	cpu := simcpu.New(simcpu.P0)
	config := "head :: TPass -> x :: X(" + mode + ") -> s :: TBatchSink;"
	if strings.HasPrefix(transfer, "Pull") {
		config = "q :: TBatchPuller -> x :: X(" + mode + ") -> k :: TPullSink;"
	}
	rt, err := BuildFromText(config, "t", actRegistry(mk), BuildOptions{CPU: cpu})
	if err != nil {
		t.Fatal(err)
	}
	var got []*packet.Packet
	switch transfer {
	case "Push":
		for _, p := range mkBatch(7) {
			rt.Find("head").base().Output(0).Push(p)
		}
		got = rt.Find("s").(*tBatchSink).got
	case "PushBatch":
		rt.Find("head").base().Output(0).PushBatch(mkBatch(7))
		got = rt.Find("s").(*tBatchSink).got
	case "Pull":
		rt.Find("q").(*tBatchPuller).queue = mkBatch(7)
		for p := rt.Find("k").base().Input(0).Pull(); p != nil; p = rt.Find("k").base().Input(0).Pull() {
			got = append(got, p)
		}
	case "PullBatch":
		rt.Find("q").(*tBatchPuller).queue = mkBatch(7)
		buf := make([]*packet.Packet, 3)
		for n := rt.Find("k").base().Input(0).PullBatch(buf); n > 0; n = rt.Find("k").base().Input(0).PullBatch(buf) {
			got = append(got, buf[:n]...)
		}
	}
	var out strings.Builder
	for _, p := range got {
		fmt.Fprintf(&out, "%x ", p.Data())
	}
	st := rt.Find("x").base().Stats()
	fmt.Fprintf(&out, "| in %d/%d out %d/%d drops %d cycles %d | cpu %d",
		st.PacketsIn(), st.BytesIn(), st.PacketsOut(), st.BytesOut(), st.Drops(), st.Cycles(), cpu.TotalCycles())
	return out.String()
}

// The four transfers core derives from SimpleAction are observably the
// four a careful author gets by writing the two burst transfers by hand.
func TestDerivedTransfersMatchHandWritten(t *testing.T) {
	for _, mode := range []string{"pass", "drop", "replace"} {
		for _, transfer := range []string{"Push", "PushBatch", "Pull", "PullBatch"} {
			derived := runTransfer(t, func() Element { return &tAct{} }, mode, transfer)
			ref := runTransfer(t, func() Element { return &tActRef{} }, mode, transfer)
			if derived != ref {
				t.Errorf("%s/%s:\n derived  %s\n by hand  %s", mode, transfer, derived, ref)
			}
			want := map[string]string{"pass": "in 7/7 out 7/7 drops 0", "drop": "in 7/7 out 4/4 drops 3", "replace": "in 7/7 out 7/14 drops 0"}[mode]
			if !strings.Contains(derived, want+" cycles 119 ") {
				t.Errorf("%s/%s: got %s, want %s and 7×17 cycles", mode, transfer, derived, want)
			}
		}
	}
}

// An idle pull path costs a simple element nothing: Work is charged for
// a delivered packet, never for an empty pull.
func TestDerivedPullChargesOnlyDeliveredPackets(t *testing.T) {
	rt, err := BuildFromText("q :: TBatchPuller -> x :: X(pass) -> k :: TPullSink;", "t",
		actRegistry(func() Element { return &tAct{} }), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := rt.Find("k").base().Input(0)
	if in.Pull() != nil || in.PullBatch(make([]*packet.Packet, 3)) != 0 {
		t.Fatal("empty source delivered a packet")
	}
	if c := rt.Find("x").base().Stats().Cycles(); c != 0 {
		t.Errorf("empty pulls charged %d cycles", c)
	}
}

// One way to write an element, not two.
func TestBuildRejectsSimpleActionPlusOwnTransfer(t *testing.T) {
	for _, c := range []struct {
		mk   func() Element
		want string
	}{
		{func() Element { return &tBothPull{} }, "own PullBatch"},
		{func() Element { return &tBothBatch{} }, "own PushBatch"},
		{func() Element { return &tBothNested{} }, "own PullBatch"},
	} {
		_, err := BuildFromText("head :: TPass -> x :: X(pass) -> s :: TSink;", "t", actRegistry(c.mk), BuildOptions{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want a rejection naming its %s", reflect.TypeOf(c.mk()), err, c.want)
		}
	}
}
