package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
)

// InstallFlowCache splices a FlowCache element into a configuration:
// every device ingress edge is rerouted through a cache ingress port,
// and every edge entering an egress queue (or a RED dropper guarding
// one) is rerouted through a record tap. The element itself
// (elements.FlowCache) then learns per-flow transformations on the
// first packet and short-circuits the pipeline for the rest — see its
// documentation for the recording, verification, and guard mechanics.
//
// The pass is purely structural — no element is removed or replaced, so
// it composes with undead/fastclassifier/fuse/devirtualize in any
// order. It is idempotent: a configuration already carrying a FlowCache
// is left alone (the adaptive controller re-runs pass pipelines on
// unparsed configurations, which must not stack caches).
//
// Tap placement deliberately targets RED inputs as well as Queue
// inputs: the fast path must re-enter the pipeline *before* any
// drop-decision element, otherwise cached packets would bypass the
// dropper the slow path went through.
func InstallFlowCache(g *graph.Router, reg *core.Registry) error {
	report := &PassReport{Pass: "flowcache"}
	for _, i := range g.LiveIndices() {
		if elements.StripDevirt(g.Elements[i].Class) == "FlowCache" {
			attachReport(g, report)
			return nil
		}
	}

	isEgressSink := func(class string) bool {
		switch elements.StripDevirt(class) {
		case "Queue", "RED":
			return true
		}
		return false
	}

	// Ingress edges: the single output edge of each device source.
	var ingress []graph.Connection
	for _, i := range g.LiveIndices() {
		if !elements.ReadsDevice(g.Elements[i].Class) {
			continue
		}
		for p := 0; p < g.NOutputs(i); p++ {
			ingress = append(ingress, g.OutputConns(i, p)...)
		}
	}
	if len(ingress) == 0 {
		attachReport(g, report)
		return nil
	}

	// Tap edges: every edge entering a Queue or RED from anything that
	// is not itself a Queue or RED (a Queue -> RED edge is the pull
	// side; a RED -> Queue edge is already covered by the tap in front
	// of the RED). Collected before rewiring so the FlowCache's own
	// miss outputs — which may feed a queue directly — are included,
	// while the tap pass-through edges added below are not.
	var taps []graph.Connection
	collectTaps := func() {
		taps = taps[:0]
		for _, c := range g.Conns {
			if isEgressSink(g.Elements[c.To].Class) && !elements.ReadsDevice(g.Elements[c.From].Class) && !isEgressSink(g.Elements[c.From].Class) {
				taps = append(taps, c)
			}
		}
	}

	name := "flow_cache"
	if g.FindElement(name) >= 0 {
		name = "" // collision: fall back to an anonymous name
	}
	// The element is added after counting ingresses but its config needs
	// the tap count, which includes edges from its own miss outputs; do
	// the ingress rewiring first against a provisional index.
	fcIdx, err := g.AddElement(name, "FlowCache", "", "flowcache")
	if err != nil {
		return fmt.Errorf("opt: flowcache: %v", err)
	}
	for i, c := range ingress {
		g.Disconnect(c.From, c.FromPort, c.To, c.ToPort)
		g.Connect(c.From, c.FromPort, fcIdx, i)
		g.Connect(fcIdx, i, c.To, c.ToPort)
	}
	collectTaps()
	for j, c := range taps {
		port := len(ingress) + j
		g.Disconnect(c.From, c.FromPort, c.To, c.ToPort)
		g.Connect(c.From, c.FromPort, fcIdx, port)
		g.Connect(fcIdx, port, c.To, c.ToPort)
	}
	g.Elements[fcIdx].Config = fmt.Sprintf("%d, %d", len(ingress), len(taps))

	report.FlowIngresses = len(ingress)
	report.FlowTaps = len(taps)
	attachReport(g, report)
	return nil
}
