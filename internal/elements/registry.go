package elements

import (
	"strconv"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lang"
)

// Register adds every built-in element class specification to a
// registry.
func Register(reg *core.Registry) {
	one := func(string) (graph.PortRange, graph.PortRange) {
		return graph.Exactly(1), graph.Exactly(1)
	}
	fixed := func(nin, nout int) func(string) (graph.PortRange, graph.PortRange) {
		return func(string) (graph.PortRange, graph.PortRange) {
			return graph.Exactly(nin), graph.Exactly(nout)
		}
	}
	ports := func(in, out graph.PortRange) func(string) (graph.PortRange, graph.PortRange) {
		return func(string) (graph.PortRange, graph.PortRange) { return in, out }
	}
	nOutputsFromArgs := func(config string) (graph.PortRange, graph.PortRange) {
		return graph.Exactly(1), graph.Exactly(len(lang.SplitConfig(config)))
	}
	// FlowCache(M, E) has M ingress + E tap inputs and matching outputs;
	// an unparsable config falls back to 1/1 and fails in Configure.
	flowCachePorts := func(config string) (graph.PortRange, graph.PortRange) {
		args := lang.SplitConfig(config)
		if len(args) == 2 {
			m, err1 := strconv.Atoi(args[0])
			n, err2 := strconv.Atoi(args[1])
			if err1 == nil && err2 == nil && m >= 1 && n >= 0 {
				return graph.Exactly(m + n), graph.Exactly(m + n)
			}
		}
		return graph.Exactly(1), graph.Exactly(1)
	}
	// IPFilter's output count depends on its rules' actions (allow = 0,
	// numbered ports add outputs).
	ipFilterPorts := func(config string) (graph.PortRange, graph.PortRange) {
		rules, err := classifier.ParseIPFilterRules(lang.SplitConfig(config))
		if err != nil {
			return graph.Exactly(1), graph.Exactly(1)
		}
		return graph.Exactly(1), graph.Exactly(classifier.IPFilterOutputs(rules))
	}

	specs := []*core.Spec{
		// Sources and sinks.
		{Name: "PollDevice", Processing: "/h", Ports: fixed(0, 1),
			Make: func() core.Element { return &PollDevice{} }, WorkCycles: costFromDevice},
		{Name: "FromDevice", Processing: "/h", Ports: fixed(0, 1),
			Make: func() core.Element { return &FromDevice{} }, WorkCycles: costFromDevice},
		{Name: "ToDevice", Processing: "l/", Ports: fixed(1, 0),
			Make: func() core.Element { return &ToDevice{} }, WorkCycles: costToDevicePull},
		{Name: "InfiniteSource", Processing: "/h", Ports: fixed(0, 1),
			Make: func() core.Element { return &InfiniteSource{} }, WorkCycles: costSource},
		{Name: "Discard", Processing: "h/", Ports: fixed(1, 0),
			Make: func() core.Element { return &Discard{} }, WorkCycles: costDiscard},
		{Name: "ToHost", Processing: "h/", Ports: fixed(1, 0),
			Make: func() core.Element { return &ToHost{} }, WorkCycles: costDiscard},
		{Name: "Idle", Processing: "a/a", Ports: ports(graph.AtLeast(0), graph.AtLeast(0)),
			Make: func() core.Element { return &Idle{} }},

		// Plumbing.
		{Name: "Null", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &Null{} }, WorkCycles: costNull},
		{Name: "Counter", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &Counter{} }, WorkCycles: costCounter},
		{Name: "Queue", Processing: "h/l", Ports: one,
			Make: func() core.Element { return &Queue{} }, WorkCycles: costQueuePush},
		{Name: "RouterLink", Processing: "h/h", Ports: one,
			Make: func() core.Element { return &RouterLink{} }, WorkCycles: costNull},
		{Name: "Tee", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.AtLeast(1)),
			Make: func() core.Element { return &Tee{} }, WorkCycles: costTee},
		{Name: "StaticSwitch", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.AtLeast(1)),
			Make: func() core.Element { return &StaticSwitch{} }, WorkCycles: costStaticSwitch},
		{Name: "Switch", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.AtLeast(1)),
			Make: func() core.Element { return &Switch{} }, WorkCycles: costStaticSwitch},
		{Name: "FlowCache", Processing: "h/h", Ports: flowCachePorts,
			Make: func() core.Element { return &FlowCache{} }},
		{Name: "PaintSwitch", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.AtLeast(1)),
			Make: func() core.Element { return &PaintSwitch{} }, WorkCycles: costStaticSwitch},
		{Name: "RED", Processing: "h/h", Ports: one,
			Make: func() core.Element { return &RED{} }, WorkCycles: costRED},
		{Name: "ScheduleInfo", Processing: "a/a", Ports: fixed(0, 0),
			Make: func() core.Element { return &ScheduleInfo{} }},
		{Name: "RoundRobinSched", Processing: "l/l", Ports: ports(graph.AtLeast(1), graph.Exactly(1)),
			Make: func() core.Element { return &RoundRobinSched{} }, WorkCycles: costQueuePull},
		{Name: "PrioSched", Processing: "l/l", Ports: ports(graph.AtLeast(1), graph.Exactly(1)),
			Make: func() core.Element { return &PrioSched{} }, WorkCycles: costQueuePull},
		{Name: "StrideSched", Processing: "l/l", Ports: ports(graph.AtLeast(1), graph.Exactly(1)),
			Make: func() core.Element { return &StrideSched{} }, WorkCycles: costQueuePull + 10},
		{Name: "RatedSource", Processing: "/h", Ports: fixed(0, 1),
			Make: func() core.Element { return &RatedSource{} }, WorkCycles: costSource},
		{Name: "Unqueue", Processing: "l/h", Ports: one,
			Make: func() core.Element { return &Unqueue{} }, WorkCycles: costNull},
		{Name: "ToDump", Processing: "h/", Ports: ports(graph.Exactly(1), graph.Between(0, 1)),
			Make: func() core.Element { return &ToDump{} }, WorkCycles: costCounter},
		{Name: "FromDump", Processing: "/h", Ports: fixed(0, 1),
			Make: func() core.Element { return &FromDump{} }, WorkCycles: costSource},

		// Paint.
		{Name: "Paint", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &Paint{} }, WorkCycles: costPaint},
		{Name: "CheckPaint", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &CheckPaint{} }, WorkCycles: costCheckPaint},
		{Name: "PaintTee", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &PaintTee{} }, WorkCycles: costCheckPaint},

		// Ethernet and ARP.
		{Name: "Strip", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &Strip{} }, WorkCycles: costStrip},
		{Name: "Unstrip", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &Unstrip{} }, WorkCycles: costStrip},
		{Name: "EtherEncap", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &EtherEncap{} }, WorkCycles: costEtherEncap},
		{Name: "HostEtherFilter", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &HostEtherFilter{} }, WorkCycles: costHostEtherFilt},
		{Name: "ARPQuerier", Processing: "h/h", Flow: "xy/x", Ports: fixed(2, 1),
			Make: func() core.Element { return &ARPQuerier{} }, WorkCycles: costARPQuerier},
		{Name: "ARPResponder", Processing: "h/h", Flow: "x/y", Ports: one,
			Make: func() core.Element { return &ARPResponder{} }, WorkCycles: costARPResponder},

		// Classification.
		{Name: "Classifier", Processing: "h/h", Ports: nOutputsFromArgs,
			Make: func() core.Element { return &Classifier{} }, WorkCycles: costClassifierBase},
		{Name: "IPClassifier", Processing: "h/h", Ports: nOutputsFromArgs,
			Make: func() core.Element { return &IPClassifier{} }, WorkCycles: costClassifierBase},
		{Name: "IPFilter", Processing: "h/h", Ports: ipFilterPorts,
			Make: func() core.Element { return &IPFilter{} }, WorkCycles: costClassifierBase},

		// IP forwarding.
		{Name: "CheckIPHeader", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &CheckIPHeader{} }, WorkCycles: costCheckIPHeader},
		{Name: "GetIPAddress", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &GetIPAddress{} }, WorkCycles: costGetIPAddress},
		{Name: "LookupIPRoute", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.AtLeast(1)),
			Make: func() core.Element { return &LookupIPRoute{} }, WorkCycles: costLookupIPRoute},
		{Name: "RadixIPLookup", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.AtLeast(1)),
			Make: func() core.Element { return &RadixIPLookup{} }, WorkCycles: costLookupIPRoute},
		{Name: "DropBroadcasts", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &DropBroadcasts{} }, WorkCycles: costDropBroadcasts},
		{Name: "IPGWOptions", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &IPGWOptions{} }, WorkCycles: costIPGWOptions},
		{Name: "FixIPSrc", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &FixIPSrc{} }, WorkCycles: costFixIPSrc},
		{Name: "DecIPTTL", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &DecIPTTL{} }, WorkCycles: costDecIPTTL},
		{Name: "IPFragmenter", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &IPFragmenter{} }, WorkCycles: costIPFragmenter},
		{Name: "ICMPError", Processing: "h/h", Flow: "x/y", Ports: one,
			Make: func() core.Element { return &ICMPError{} }, WorkCycles: costICMPError},
		{Name: "ICMPPingResponder", Processing: "h/h", Flow: "x/y", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &ICMPPingResponder{} }, WorkCycles: costICMPError},

		// Alignment.
		{Name: "Align", Processing: "a/a", Ports: one,
			Make: func() core.Element { return &Align{} }, WorkCycles: costNull},
		{Name: "AlignmentInfo", Processing: "a/a", Ports: fixed(0, 0),
			Make: func() core.Element { return &AlignmentInfo{} }},

		// Combination elements (click-xform targets).
		{Name: "IPInputCombo", Processing: "a/ah", Ports: ports(graph.Exactly(1), graph.Between(1, 2)),
			Make: func() core.Element { return &IPInputCombo{} }, WorkCycles: costIPInputCombo},
		{Name: "IPOutputCombo", Processing: "h/h", Ports: ports(graph.Exactly(1), graph.Between(1, 5)),
			Make: func() core.Element { return &IPOutputCombo{} }, WorkCycles: costIPOutputCombo},
		{Name: "EtherEncapARP", Processing: "h/h", Flow: "xy/x", Ports: fixed(2, 1),
			Make: func() core.Element { return &EtherEncapARP{} }, WorkCycles: costEtherEncapARP},
	}
	for _, s := range specs {
		reg.Register(s)
	}
}

// NewRegistry returns a registry containing every built-in element
// class.
func NewRegistry() *core.Registry {
	reg := core.NewRegistry()
	Register(reg)
	return reg
}
