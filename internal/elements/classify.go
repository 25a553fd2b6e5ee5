package elements

import (
	"fmt"
	"sync/atomic"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/packet"
)

// classifierBase is the one classification element body: a decision
// tree matched per packet, charging the cost model per node visited. The
// three generic classes (§3) walk the tree with the interpreter loop of
// Figure 3a; the classes click-fastclassifier and click-fuse generate
// run the same tree compiled, at a lower cost per node.
type classifierBase struct {
	core.Base
	prog     *classifier.Program
	match    func(data []byte) (port int, matched bool, steps int)
	stepCost int64
	// Matched and Dropped instrument classification outcomes.
	Matched int64
	Dropped int64
}

// Program exposes the decision tree (click-fastclassifier's harness
// reads it, and click-fuse composes already-specialized classifiers).
func (e *classifierBase) Program() *classifier.Program { return e.prog }

// interpret installs pr as the tree to walk with the generic
// interpreter.
func (e *classifierBase) interpret(class string, pr *classifier.Program, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %v", class, err)
	}
	pr.Optimize()
	e.prog, e.match, e.stepCost = pr, pr.Match, costClassifierStep
	return nil
}

// route matches one packet, charging the tree steps it took, and
// returns the output port it leaves on, or -1 when nothing matched or
// the port is not wired.
func (e *classifierBase) route(p *packet.Packet) int {
	e.Work()
	e.MemFetch(1) // first touch of the packet's Ethernet header
	out, ok, steps := e.match(p.Data())
	e.Charge(int64(steps) * e.stepCost)
	if !ok || out >= e.NOutputs() {
		atomic.AddInt64(&e.Dropped, 1)
		return -1
	}
	atomic.AddInt64(&e.Matched, 1)
	return out
}

// PushBatch classifies each packet and forwards runs of consecutive
// same-port packets as sub-batches, preserving per-port packet order.
func (e *classifierBase) PushBatch(port int, ps []*packet.Packet) {
	pushRun(routeRuns(&e.Base, e, ps))
}

// portChooser is an element that chooses one output per packet: route
// returns the port p leaves on, or -1 to drop it.
type portChooser interface {
	route(p *packet.Packet) int
}

// routeRuns is the burst transfer of every portChooser c, whose Base is
// b. It routes ps through c's per-packet decision and pushes each
// maximal run of consecutive same-port packets as one batched transfer,
// which preserves per-port order — all but the last run, which it
// returns with its port for the caller to hand to pushRun. A port that
// is not wired (-1 for "none") drops the packet. The scalar path nests
// every hop inside the previous one, and on a call chain that deep each
// frame costs a mispredicted return: leaving the last push to the
// caller keeps this helper's frame off the chain.
func routeRuns(b *core.Base, c portChooser, ps []*packet.Packet) (*core.OutPort, []*packet.Packet) {
	start, cur := 0, -1 // ps[start:i] is a run bound for output cur; -1: none
	for i, p := range ps {
		out := c.route(p)
		valid := uint(out) < uint(b.NOutputs())
		if valid && out == cur {
			continue
		}
		if cur >= 0 {
			b.Output(cur).PushBatch(ps[start:i])
		}
		cur, start = -1, i
		if valid {
			cur = out
		} else {
			b.Drop(p)
		}
	}
	if cur < 0 {
		return nil, nil
	}
	return b.Output(cur), ps[start:]
}

// pushRun pushes the run routeRuns left, if any.
func pushRun(out *core.OutPort, run []*packet.Packet) {
	if len(run) > 0 {
		out.PushBatch(run)
	}
}

// Classifier matches raw packet data against hex patterns
// ("12/0806 20/0001, 12/0800, -"); each pattern is an output port.
type Classifier struct{ classifierBase }

// Configure compiles the patterns.
func (e *Classifier) Configure(args []string) error {
	pr, err := classifier.BuildClassifierProgram(args)
	return e.interpret("Classifier", pr, err)
}

// IPClassifier matches IP packets against tcpdump-like expressions, one
// per output port.
type IPClassifier struct{ classifierBase }

// Configure compiles the expressions.
func (e *IPClassifier) Configure(args []string) error {
	pr, err := classifier.BuildIPClassifierProgram(args)
	return e.interpret("IPClassifier", pr, err)
}

// IPFilter applies allow/deny rules; allowed packets leave on output 0.
type IPFilter struct{ classifierBase }

// Configure compiles the rules.
func (e *IPFilter) Configure(args []string) error {
	pr, err := classifier.BuildIPFilterProgram(args)
	return e.interpret("IPFilter", pr, err)
}

// FastClassifier is the runtime body of the element classes
// click-fastclassifier generates: the same decision tree, compiled with
// inlined constants (Figure 3b). Instances are created through dynamic
// specs registered by the tool, never named directly in hand-written
// configurations.
type FastClassifier struct {
	classifierBase
	compiled func() *classifier.Compiled
}

// NewFastClassifier wraps a decision tree as an element factory. The
// matcher comes from compiled, called first when an instance is
// configured: a class never instantiated is never compiled.
func NewFastClassifier(prog *classifier.Program, compiled func() *classifier.Compiled) func() core.Element {
	return func() core.Element { return &FastClassifier{classifierBase{prog: prog}, compiled} }
}

// Configure installs the compiled matcher and ignores arguments: the
// tree is baked in, exactly as the generated C++ classes ignore their
// configuration strings.
func (e *FastClassifier) Configure(args []string) error {
	e.match, e.stepCost = e.compiled().Match, costFastClassStep
	return nil
}

// FusedClassifier is the runtime body of the FusedClassifier_N classes
// click-fuse generates: one decision diagram standing in for a whole
// run of classification elements, with the run's exit edges as output
// ports. The matcher is identical to FastClassifier's — the win comes
// from the composed, specialized diagram and the per-stage dispatch it
// removes — so it keeps FastClassifier's calibrated cost model.
type FusedClassifier struct{ FastClassifier }

// NewFusedClassifier wraps a composed decision diagram as an element
// factory for a generated fused class, as NewFastClassifier does.
func NewFusedClassifier(prog *classifier.Program, compiled func() *classifier.Compiled) func() core.Element {
	return func() core.Element { return &FusedClassifier{FastClassifier{classifierBase{prog: prog}, compiled}} }
}
