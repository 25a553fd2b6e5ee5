package graph

import (
	"fmt"
)

// PortKind is the packet-transfer discipline of a port.
type PortKind int

const (
	// Agnostic ports take on the discipline of whatever they are
	// connected to.
	Agnostic PortKind = iota
	// Push ports transfer packets on the initiative of the upstream
	// element.
	Push
	// Pull ports transfer packets on the initiative of the downstream
	// element.
	Pull
)

func (k PortKind) String() string {
	switch k {
	case Push:
		return "push"
	case Pull:
		return "pull"
	}
	return "agnostic"
}

// SpecSource supplies per-class specifications to graph analyses. The
// element library implements it; optimizer tests can supply small fakes.
// This is the paper's "external specification" mechanism (§5.3): tools
// cannot link with element implementations, so element properties are
// published as simple textual codes.
type SpecSource interface {
	// ProcessingCode returns the class's processing code, e.g. "a/ah"
	// (paper §5.3), and whether the class is known.
	ProcessingCode(class string) (string, bool)
	// FlowCode returns the class's packet-flow code, e.g. "x/x".
	FlowCode(class string) (string, bool)
	// PortCounts returns the input and output port count ranges for an
	// element of this class with the given configuration. A count of
	// -1 means "any number".
	PortCounts(class, config string) (nin, nout PortRange, ok bool)
}

// PortRange bounds the legal number of ports. Min == Max for an exact
// count; Max == -1 for unbounded.
type PortRange struct {
	Min int
	Max int
}

// Exactly returns a PortRange requiring exactly n ports.
func Exactly(n int) PortRange { return PortRange{Min: n, Max: n} }

// AtLeast returns a PortRange requiring n or more ports.
func AtLeast(n int) PortRange { return PortRange{Min: n, Max: -1} }

// Between returns a PortRange requiring between lo and hi ports.
func Between(lo, hi int) PortRange { return PortRange{Min: lo, Max: hi} }

// Contains reports whether n ports satisfies the range.
func (r PortRange) Contains(n int) bool {
	return n >= r.Min && (r.Max < 0 || n <= r.Max)
}

// ProcCode is a parsed processing code: the per-port kinds for inputs
// and outputs, with the last entry repeating for higher-numbered ports.
type ProcCode struct {
	In  []PortKind
	Out []PortKind
}

// ParseProcCode parses a textual processing code like "a/ah" or "h/l".
// 'h' is push, 'l' is pull, 'a' is agnostic; the part before '/'
// describes inputs and after '/' outputs; the final character of each
// part repeats for any additional ports.
func ParseProcCode(code string) (ProcCode, error) {
	var pc ProcCode
	part := &pc.In
	for i := 0; i < len(code); i++ {
		switch c := code[i]; c {
		case 'h':
			*part = append(*part, Push)
		case 'l':
			*part = append(*part, Pull)
		case 'a':
			*part = append(*part, Agnostic)
		case '/':
			if part == &pc.Out {
				return ProcCode{}, fmt.Errorf("graph: processing code %q has two '/'", code)
			}
			part = &pc.Out
		default:
			return ProcCode{}, fmt.Errorf("graph: bad character %q in processing code %q", string(c), code)
		}
	}
	if len(pc.In) == 0 {
		pc.In = []PortKind{Agnostic}
	}
	if len(pc.Out) == 0 {
		pc.Out = []PortKind{Agnostic}
	}
	return pc, nil
}

// Input returns the declared kind of input port i.
func (pc ProcCode) Input(i int) PortKind {
	if i >= len(pc.In) {
		return pc.In[len(pc.In)-1]
	}
	return pc.In[i]
}

// Output returns the declared kind of output port i.
func (pc ProcCode) Output(i int) PortKind {
	if i >= len(pc.Out) {
		return pc.Out[len(pc.Out)-1]
	}
	return pc.Out[i]
}

// Processing holds the resolved push/pull assignment for every port of
// every element in a router.
type Processing struct {
	In  [][]PortKind // [element][port]
	Out [][]PortKind
}

// InputKind returns the resolved kind of element e's input port p.
func (pr *Processing) InputKind(e, p int) PortKind { return pr.In[e][p] }

// OutputKind returns the resolved kind of element e's output port p.
func (pr *Processing) OutputKind(e, p int) PortKind { return pr.Out[e][p] }

// AssignProcessing resolves every port of every live element to push or
// pull. Agnostic ports within a single element are tied together
// (packets flow through agnostic elements without changing discipline),
// and connected ports must agree. Unconstrained agnostic ports default
// to push. It returns an error naming the first conflicting connection.
func AssignProcessing(r *Router, specs SpecSource) (*Processing, error) {
	n := len(r.Elements)
	pr := &Processing{In: make([][]PortKind, n), Out: make([][]PortKind, n)}

	// Union-find over dense port ids: element i's input p is
	// inBase[i]+p and its output p is outBase[i]+p.
	inBase, outBase := make([]int, n), make([]int, n)
	var parent []int
	var value []PortKind // resolved kind of each set root
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// union merges two sets, reporting false if their kinds conflict.
	union := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return true
		}
		va, vb := value[ra], value[rb]
		if va != Agnostic && vb != Agnostic && va != vb {
			return false
		}
		if va == Agnostic {
			value[ra] = vb
		}
		parent[rb] = ra
		return true
	}
	var conflict error
	for i, e := range r.Elements {
		if e.dead {
			continue
		}
		codeStr, ok := specs.ProcessingCode(e.Class)
		if !ok {
			return nil, fmt.Errorf("graph: unknown element class %q (element %q)", e.Class, e.Name)
		}
		pc, err := ParseProcCode(codeStr)
		if err != nil {
			return nil, fmt.Errorf("graph: element %q: %v", e.Name, err)
		}
		nin, nout := r.NInputs(i), r.NOutputs(i)
		pr.In[i] = make([]PortKind, nin)
		pr.Out[i] = make([]PortKind, nout)
		inBase[i] = len(parent)
		outBase[i] = inBase[i] + nin
		agnosticSet := -1
		for p := 0; p < nin+nout; p++ {
			var k PortKind
			if p < nin {
				k = pc.Input(p)
			} else {
				k = pc.Output(p - nin)
			}
			id := len(parent)
			parent = append(parent, id)
			value = append(value, k)
			if k != Agnostic {
				continue
			}
			if agnosticSet < 0 {
				agnosticSet = id
			} else if !union(agnosticSet, id) && conflict == nil {
				conflict = fmt.Errorf("graph: push/pull conflict at %s", e.Name)
			}
		}
	}

	for _, c := range r.Conns {
		if !union(outBase[c.From]+c.FromPort, inBase[c.To]+c.ToPort) && conflict == nil {
			conflict = fmt.Errorf("graph: push/pull conflict at %s[%d] -> [%d]%s",
				r.Elements[c.From].Name, c.FromPort, c.ToPort, r.Elements[c.To].Name)
		}
	}
	if conflict != nil {
		return nil, conflict
	}

	resolve := func(id int) PortKind {
		k := value[find(id)]
		if k == Agnostic {
			return Push // unconstrained agnostic ports default to push
		}
		return k
	}
	for i, e := range r.Elements {
		if e.dead {
			continue
		}
		for p := range pr.In[i] {
			pr.In[i][p] = resolve(inBase[i] + p)
		}
		for p := range pr.Out[i] {
			pr.Out[i][p] = resolve(outBase[i] + p)
		}
	}
	return pr, nil
}

// FlowCode is a parsed packet-flow code describing which input ports'
// packets can emerge from which output ports. Ports labeled with the
// same letter are connected; '#' connects only equal port numbers.
type FlowCode struct {
	In  string
	Out string
}

// ParseFlowCode parses codes like "x/x" (any input flows to any output),
// "xy/x" (only input 0 flows to outputs), or "#/#" (input i flows to
// output i).
func ParseFlowCode(code string) (FlowCode, error) {
	slash := -1
	for i := 0; i < len(code); i++ {
		if code[i] == '/' {
			if slash >= 0 {
				return FlowCode{}, fmt.Errorf("graph: flow code %q has two '/'", code)
			}
			slash = i
		}
	}
	if slash < 0 {
		return FlowCode{}, fmt.Errorf("graph: flow code %q missing '/'", code)
	}
	fc := FlowCode{In: code[:slash], Out: code[slash+1:]}
	if fc.In == "" || fc.Out == "" {
		return FlowCode{}, fmt.Errorf("graph: flow code %q has empty side", code)
	}
	return fc, nil
}

func flowChar(s string, port int) byte {
	if port >= len(s) {
		return s[len(s)-1]
	}
	return s[port]
}

// Connects reports whether packets entering input port in can emerge
// from output port out.
func (fc FlowCode) Connects(in, out int) bool {
	a, b := flowChar(fc.In, in), flowChar(fc.Out, out)
	if a == '#' || b == '#' {
		return a == b && in == out
	}
	return a == b
}

// CheckPorts verifies that every live element's used port counts fall in
// its class's declared ranges. It returns one error per violation.
func CheckPorts(r *Router, specs SpecSource) []error {
	var errs []error
	for i, e := range r.Elements {
		if e.dead {
			continue
		}
		nin, nout, ok := specs.PortCounts(e.Class, e.Config)
		if !ok {
			errs = append(errs, fmt.Errorf("unknown element class %q (element %q)", e.Class, e.Name))
			continue
		}
		if got := r.NInputs(i); !nin.Contains(got) {
			errs = append(errs, fmt.Errorf("element %q (%s) has %d input(s), wants %s", e.Name, e.Class, got, rangeString(nin)))
		}
		if got := r.NOutputs(i); !nout.Contains(got) {
			errs = append(errs, fmt.Errorf("element %q (%s) has %d output(s), wants %s", e.Name, e.Class, got, rangeString(nout)))
		}
	}
	return errs
}

func rangeString(pr PortRange) string {
	switch {
	case pr.Max < 0:
		return fmt.Sprintf("at least %d", pr.Min)
	case pr.Min == pr.Max:
		return fmt.Sprintf("exactly %d", pr.Min)
	}
	return fmt.Sprintf("%d-%d", pr.Min, pr.Max)
}

// CheckConnectionDiscipline verifies push/pull connection rules: a push
// output port and a pull input port must each have exactly one
// connection. It assumes processing has been resolved.
func CheckConnectionDiscipline(r *Router, pr *Processing) []error {
	var errs []error
	for i, e := range r.Elements {
		if e.dead {
			continue
		}
		for p := range pr.Out[i] {
			n := len(r.OutputConns(i, p))
			if pr.Out[i][p] == Push && n > 1 {
				errs = append(errs, fmt.Errorf("element %q push output [%d] has %d connections", e.Name, p, n))
			}
			if n == 0 {
				errs = append(errs, fmt.Errorf("element %q output [%d] not connected", e.Name, p))
			}
		}
		for p := range pr.In[i] {
			n := len(r.InputConns(i, p))
			if pr.In[i][p] == Pull && n > 1 {
				errs = append(errs, fmt.Errorf("element %q pull input [%d] has %d connections", e.Name, p, n))
			}
			if n == 0 {
				errs = append(errs, fmt.Errorf("element %q input [%d] not connected", e.Name, p))
			}
		}
	}
	return errs
}
