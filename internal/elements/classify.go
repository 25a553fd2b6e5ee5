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

// Push classifies.
func (e *classifierBase) Push(port int, p *packet.Packet) { e.CheckedPush(e.route(p), p) }

// PushBatch classifies each packet and forwards runs of consecutive
// same-port packets as sub-batches, preserving per-port packet order.
func (e *classifierBase) PushBatch(port int, ps []*packet.Packet) {
	pushRunsBatch(&e.Base, ps, e.route)
}

// pushRunsBatch routes a batch through a per-packet port decision,
// emitting maximal runs of consecutive same-port packets as one
// batched transfer each; -1 drops the packet.
func pushRunsBatch(b *core.Base, ps []*packet.Packet, route func(*packet.Packet) int) {
	start, cur := 0, -2
	flush := func(end int) {
		if cur >= 0 && end > start {
			b.Output(cur).PushBatch(ps[start:end])
		}
	}
	for i, p := range ps {
		out := route(p)
		if out < 0 {
			flush(i)
			b.Drop(p)
			cur, start = -2, i+1
			continue
		}
		if out != cur {
			flush(i)
			cur, start = out, i
		}
	}
	flush(len(ps))
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
type FastClassifier struct{ classifierBase }

// NewFastClassifier wraps a compiled program as an element factory.
func NewFastClassifier(c *classifier.Compiled) func() core.Element {
	return func() core.Element { return &FastClassifier{compiledBase(c)} }
}

func compiledBase(c *classifier.Compiled) classifierBase {
	return classifierBase{prog: c.Program(), match: c.Match, stepCost: costFastClassStep}
}

// Configure ignores arguments: the compiled tree is baked in, exactly
// as the generated C++ classes ignore their configuration strings.
func (e *FastClassifier) Configure(args []string) error { return nil }

// FusedClassifier is the runtime body of the FusedClassifier_N classes
// click-fuse generates: one decision diagram standing in for a whole
// run of classification elements, with the run's exit edges as output
// ports. The matcher is identical to FastClassifier's — the win comes
// from the composed, specialized diagram and the per-stage dispatch it
// removes — so it keeps FastClassifier's calibrated cost model.
type FusedClassifier struct {
	FastClassifier
}

// NewFusedClassifier wraps a composed decision diagram as an element
// factory for a generated fused class.
func NewFusedClassifier(c *classifier.Compiled) func() core.Element {
	return func() core.Element { return &FusedClassifier{FastClassifier{compiledBase(c)}} }
}
