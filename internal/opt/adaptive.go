package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/lang"
)

// Adaptive is the telemetry-driven re-optimization controller: the
// runtime loop the offline tool chain lacks. It periodically samples a
// live router's per-element statistics (the PR 2 telemetry handlers),
// decides which optimizer passes the observed traffic actually
// justifies — fastclassifier only when classifiers are hot, undead only
// when a switch branch has stayed cold for several samples,
// devirtualize once there is enough traffic to specialize for — and
// re-runs the pass pipeline over the unparsed live configuration. The
// result is hot-swapped in by the caller (cmd/click, netsim, or the
// adaptive benchmark).
//
// The controller reads counters and rewrites configurations offline; it
// never charges model cycles, so the calibrated Figure 8/9 numbers are
// unaffected by having it attached.
type Adaptive struct {
	Opts AdaptiveOptions

	samples int
	prevIn  map[string]int64
	cold    map[string]int
}

// AdaptiveOptions tune the controller's decision thresholds.
type AdaptiveOptions struct {
	// MinPackets is the packet count an element must have seen before
	// the controller considers it hot (and before devirtualization is
	// judged worthwhile at all).
	MinPackets int64
	// ColdSamples is the number of consecutive Observe calls an element
	// must go without receiving a packet to be considered dead traffic
	// ("zero packets for N rounds").
	ColdSamples int
	// EnableFlowCache lets the controller decide to install the flow
	// fast path once the router is hot. Off by default: FlowCache is a
	// data-dependent optimization the operator opts into (it changes
	// which elements see which packets, unlike the structure-preserving
	// code passes).
	EnableFlowCache bool
}

// DefaultAdaptiveOptions returns the thresholds the click driver uses.
func DefaultAdaptiveOptions() AdaptiveOptions {
	return AdaptiveOptions{MinPackets: 1000, ColdSamples: 3}
}

// NewAdaptive builds a controller; zero-valued options fall back to the
// defaults.
func NewAdaptive(opts AdaptiveOptions) *Adaptive {
	def := DefaultAdaptiveOptions()
	if opts.MinPackets <= 0 {
		opts.MinPackets = def.MinPackets
	}
	if opts.ColdSamples <= 0 {
		opts.ColdSamples = def.ColdSamples
	}
	return &Adaptive{
		Opts:   opts,
		prevIn: map[string]int64{},
		cold:   map[string]int{},
	}
}

// Decision is the controller's verdict on one telemetry sample: which
// passes the observed traffic justifies, with human-readable reasons.
type Decision struct {
	FastClassifier bool
	Devirtualize   bool
	Undead         bool
	Fuse           bool
	FlowCache      bool
	Reasons        []string
}

// Any reports whether the decision selects at least one pass.
func (d Decision) Any() bool {
	return d.FastClassifier || d.Devirtualize || d.Undead || d.Fuse || d.FlowCache
}

// generatedFastClassifier and generatedFusedClassifier recognize the
// class names the fastclassifier and fuse passes generate (possibly
// wearing a devirtualize "_dvN" suffix).
func generatedFastClassifier(class string) bool {
	return strings.HasPrefix(elements.StripDevirt(class), "FastClassifier@@")
}

func generatedFusedClassifier(class string) bool {
	return strings.HasPrefix(elements.StripDevirt(class), "FusedClassifier_")
}

// Observe feeds the controller one telemetry sample: the live router's
// configuration graph and its stats report (core.Router.StatsReport).
// It updates the per-element cold streaks and returns the passes the
// traffic seen so far justifies.
func (a *Adaptive) Observe(g *graph.Router, stats []core.ElementStatsReport) Decision {
	a.samples++
	byName := map[string]core.ElementStatsReport{}
	var maxIn int64
	for _, r := range stats {
		byName[r.Name] = r
		if r.PacketsIn > maxIn {
			maxIn = r.PacketsIn
		}
		// Cold streak: one more sample without a new packet arriving.
		if r.PacketsIn == a.prevIn[r.Name] {
			a.cold[r.Name]++
		} else {
			a.cold[r.Name] = 0
		}
		a.prevIn[r.Name] = r.PacketsIn
	}

	var d Decision

	// fastclassifier: only when a tree-walking classifier is hot. A cold
	// classifier is not worth a generated class (the paper's tools apply
	// it unconditionally; the controller has traffic counts to be
	// choosier with).
	for _, i := range g.LiveIndices() {
		e := g.Element(i)
		if !classifierClasses[e.Class] {
			continue
		}
		if r, ok := byName[e.Name]; ok && r.PacketsIn >= a.Opts.MinPackets {
			d.FastClassifier = true
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("fastclassifier: %s (%s) is hot with %d packets", e.Name, e.Class, r.PacketsIn))
			break
		}
	}

	// fuse: a hot run of two or more adjacent classification-only
	// elements collapses into one decision diagram. Detection is by
	// class name (StripDevirt'd, so specialized variants count);
	// already-fused FusedClassifier_N stages are classification-only
	// too, so a hot diagram adjacent to a fresh classifier re-fuses.
	fusable := func(class string) bool {
		base := elements.StripDevirt(class)
		return base == "StaticSwitch" || classifierClasses[base] ||
			generatedFastClassifier(class) || generatedFusedClassifier(class)
	}
fuse:
	for _, c := range g.Conns {
		u, v := g.Element(c.From), g.Element(c.To)
		if !fusable(u.Class) || !fusable(v.Class) {
			continue
		}
		if r, ok := byName[u.Name]; ok && r.PacketsIn >= a.Opts.MinPackets {
			d.Fuse = true
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("fuse: classification run %s -> %s is hot with %d packets", u.Name, v.Name, r.PacketsIn))
			break fuse
		}
	}

	// flowcache: once the router is hot, install the flow fast path —
	// but only when the operator opted in, and never twice.
	if a.Opts.EnableFlowCache && maxIn >= a.Opts.MinPackets {
		has := false
		for _, i := range g.LiveIndices() {
			if elements.StripDevirt(g.Element(i).Class) == "FlowCache" {
				has = true
				break
			}
		}
		if !has {
			d.FlowCache = true
			d.Reasons = append(d.Reasons,
				fmt.Sprintf("flowcache: %d packets through the hottest element", maxIn))
		}
	}

	// devirtualize: worthwhile once the router carries real traffic —
	// specializing transfer paths for an idle router buys nothing.
	if maxIn >= a.Opts.MinPackets {
		d.Devirtualize = true
		d.Reasons = append(d.Reasons,
			fmt.Sprintf("devirtualize: %d packets through the hottest element", maxIn))
	}

	// undead: a StaticSwitch branch that has stayed cold for
	// ColdSamples consecutive samples is dead traffic; splicing the
	// switch out and removing the branch shortens the hot path.
	if a.samples >= a.Opts.ColdSamples {
	undead:
		for _, i := range g.LiveIndices() {
			e := g.Element(i)
			if e.Class != "StaticSwitch" {
				continue
			}
			if byName[e.Name].PacketsIn == 0 {
				continue // the switch itself carries nothing yet
			}
			for p := 0; p < g.NOutputs(i); p++ {
				for _, c := range g.OutputConns(i, p) {
					tgt := g.Element(c.To)
					if a.cold[tgt.Name] >= a.Opts.ColdSamples {
						d.Undead = true
						d.Reasons = append(d.Reasons,
							fmt.Sprintf("undead: %s branch %d (-> %s) cold for %d samples",
								e.Name, p, tgt.Name, a.cold[tgt.Name]))
						break undead
					}
				}
			}
		}
	}
	sort.Strings(d.Reasons)
	return d
}

// Reoptimize applies a decision to a live router's configuration: the
// graph is unparsed back to the configuration language (lang is the
// round-trip that makes runtime re-optimization possible), re-parsed,
// the archive (generated classes from earlier passes) carried over and
// re-installed into a fresh registry, and the selected passes applied
// in the canonical order: undead, fuse, fastclassifier, flowcache,
// devirtualize — fuse early so diagrams compose over the original
// classifiers, devirtualize last, since it cements element order. The
// adaptive report lands in the archive under "reports/adaptive"
// alongside the per-pass reports.
//
// InstallArchive re-registers every generated class the configuration
// already carries — fastclassifier programs, fuse decision diagrams
// ("fuse/programs"), devirtualized clones — so an adapt cycle on an
// already-fused router preserves its FusedClassifier_N specialization
// even when the cycle itself selects no fuse re-run.
//
// The returned graph and registry are what core.Build (or a testbed
// Hotswap) needs to assemble the replacement router.
func Reoptimize(g *graph.Router, d Decision) (*graph.Router, *core.Registry, error) {
	text := lang.Unparse(g)
	ng, err := lang.ParseRouter(text, "adaptive")
	if err != nil {
		return nil, nil, fmt.Errorf("opt: adaptive: re-parse of live config failed: %v", err)
	}
	for k, v := range g.Archive {
		ng.Archive[k] = v
	}
	for _, r := range g.Requirements {
		ng.Require(r)
	}
	reg := elements.NewRegistry()
	if err := InstallArchive(ng, reg); err != nil {
		return nil, nil, fmt.Errorf("opt: adaptive: %v", err)
	}
	var applied []string
	report := &PassReport{Pass: "adaptive", Reasons: d.Reasons}
	if d.Undead {
		report.ElementsRemoved = Undead(ng, reg)
		applied = append(applied, "undead")
	}
	if d.Fuse {
		if err := Fuse(ng, reg); err != nil {
			return nil, nil, fmt.Errorf("opt: adaptive: %v", err)
		}
		applied = append(applied, "fuse")
	}
	if d.FastClassifier {
		if err := FastClassifier(ng, reg); err != nil {
			return nil, nil, fmt.Errorf("opt: adaptive: %v", err)
		}
		applied = append(applied, "fastclassifier")
	}
	if d.FlowCache {
		if err := InstallFlowCache(ng, reg); err != nil {
			return nil, nil, fmt.Errorf("opt: adaptive: %v", err)
		}
		applied = append(applied, "flowcache")
	}
	if d.Devirtualize {
		if err := Devirtualize(ng, reg, nil); err != nil {
			return nil, nil, fmt.Errorf("opt: adaptive: %v", err)
		}
		applied = append(applied, "devirtualize")
	}
	report.PassesApplied = applied
	attachReport(ng, report)
	return ng, reg, nil
}
