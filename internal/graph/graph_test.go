package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

func build(t *testing.T) (*Router, int, int, int) {
	t.Helper()
	r := New()
	a := r.MustAddElement("a", "A", "", "")
	b := r.MustAddElement("b", "B", "", "")
	c := r.MustAddElement("c", "C", "", "")
	r.Connect(a, 0, b, 0)
	r.Connect(b, 0, c, 0)
	return r, a, b, c
}

func TestAddFindElement(t *testing.T) {
	r, a, _, _ := build(t)
	if r.FindElement("a") != a {
		t.Error("FindElement failed")
	}
	if r.FindElement("nope") != -1 {
		t.Error("FindElement found missing element")
	}
	if _, err := r.AddElement("a", "X", "", ""); err == nil {
		t.Error("duplicate AddElement succeeded")
	}
}

func TestAnonymousNames(t *testing.T) {
	r := New()
	i1, _ := r.AddElement("", "Queue", "", "")
	i2, _ := r.AddElement("", "Queue", "", "")
	n1, n2 := r.Element(i1).Name, r.Element(i2).Name
	if n1 == n2 {
		t.Errorf("anonymous names collide: %q", n1)
	}
	if !strings.HasPrefix(n1, "Queue@") {
		t.Errorf("anonymous name = %q", n1)
	}
}

func TestConnectDeduplicates(t *testing.T) {
	r, a, b, _ := build(t)
	r.Connect(a, 0, b, 0)
	if len(r.Conns) != 2 {
		t.Errorf("conns = %d, want 2", len(r.Conns))
	}
}

func TestDisconnect(t *testing.T) {
	r, a, b, _ := build(t)
	r.Disconnect(a, 0, b, 0)
	if len(r.Conns) != 1 {
		t.Errorf("conns = %d, want 1", len(r.Conns))
	}
	r.Disconnect(a, 0, b, 0) // no-op
	if len(r.Conns) != 1 {
		t.Error("double disconnect removed extra connection")
	}
}

func TestRemoveElement(t *testing.T) {
	r, _, b, _ := build(t)
	r.RemoveElement(b)
	if r.FindElement("b") != -1 {
		t.Error("removed element still findable")
	}
	if len(r.Conns) != 0 {
		t.Errorf("conns = %d, want 0 after removing middle element", len(r.Conns))
	}
	if r.NumElements() != 2 {
		t.Errorf("NumElements = %d", r.NumElements())
	}
}

func TestRemoveAndSplice(t *testing.T) {
	r, a, b, c := build(t)
	r.RemoveAndSplice(b)
	out := r.OutputConns(a, 0)
	if len(out) != 1 || out[0].To != c {
		t.Errorf("splice failed: %v", out)
	}
}

func TestRemoveAndSpliceMultiPort(t *testing.T) {
	r := New()
	s1 := r.MustAddElement("s1", "S", "", "")
	s2 := r.MustAddElement("s2", "S", "", "")
	mid := r.MustAddElement("m", "Null2", "", "")
	d1 := r.MustAddElement("d1", "D", "", "")
	d2 := r.MustAddElement("d2", "D", "", "")
	r.Connect(s1, 0, mid, 0)
	r.Connect(s2, 0, mid, 1)
	r.Connect(mid, 0, d1, 0)
	r.Connect(mid, 1, d2, 0)
	r.RemoveAndSplice(mid)
	if got := r.OutputConns(s1, 0); len(got) != 1 || got[0].To != d1 {
		t.Errorf("port 0 splice: %v", got)
	}
	if got := r.OutputConns(s2, 0); len(got) != 1 || got[0].To != d2 {
		t.Errorf("port 1 splice: %v", got)
	}
}

func TestCompact(t *testing.T) {
	r, a, b, c := build(t)
	r.RemoveElement(a)
	remap := r.Compact()
	if remap[a] != -1 {
		t.Error("removed element not remapped to -1")
	}
	if remap[b] != 0 || remap[c] != 1 {
		t.Errorf("remap = %v", remap)
	}
	if len(r.Conns) != 1 || r.Conns[0].From != 0 || r.Conns[0].To != 1 {
		t.Errorf("conns after compact = %v", r.Conns)
	}
	if r.FindElement("b") != 0 {
		t.Error("name map stale after compact")
	}
}

func TestPortCounts(t *testing.T) {
	r := New()
	x := r.MustAddElement("x", "X", "", "")
	y := r.MustAddElement("y", "Y", "", "")
	r.Connect(x, 3, y, 1)
	if r.NOutputs(x) != 4 {
		t.Errorf("NOutputs = %d", r.NOutputs(x))
	}
	if r.NInputs(y) != 2 {
		t.Errorf("NInputs = %d", r.NInputs(y))
	}
	if r.NInputs(x) != 0 || r.NOutputs(y) != 0 {
		t.Error("unconnected side nonzero")
	}
}

func TestClone(t *testing.T) {
	r, a, b, _ := build(t)
	r.Archive["gen.go"] = []byte("x")
	cp := r.Clone()
	cp.RemoveElement(a)
	cp.Element(b).Config = "changed"
	if r.FindElement("a") != a {
		t.Error("clone removal affected original")
	}
	if r.Element(b).Config == "changed" {
		t.Error("clone element mutation affected original")
	}
	if string(cp.Archive["gen.go"]) != "x" {
		t.Error("archive not cloned")
	}
	cp.Archive["gen.go"] = []byte("y")
	if string(r.Archive["gen.go"]) != "x" {
		t.Error("clone archive write affected original")
	}
}

func TestRename(t *testing.T) {
	r, a, _, _ := build(t)
	if err := r.Rename(a, "alpha"); err != nil {
		t.Fatal(err)
	}
	if r.FindElement("alpha") != a || r.FindElement("a") != -1 {
		t.Error("rename bookkeeping wrong")
	}
	if err := r.Rename(a, "b"); err == nil {
		t.Error("rename onto existing name succeeded")
	}
}

func TestParseProcCode(t *testing.T) {
	cases := []struct {
		code    string
		in, out []PortKind
		bad     bool
	}{
		{"h/h", []PortKind{Push}, []PortKind{Push}, false},
		{"l/l", []PortKind{Pull}, []PortKind{Pull}, false},
		{"a/ah", []PortKind{Agnostic}, []PortKind{Agnostic, Push}, false},
		{"h/lh", []PortKind{Push}, []PortKind{Pull, Push}, false},
		{"hl/", []PortKind{Push, Pull}, []PortKind{Agnostic}, false},
		{"x/y", nil, nil, true},
		{"h/h/h", nil, nil, true},
	}
	for _, c := range cases {
		pc, err := ParseProcCode(c.code)
		if c.bad {
			if err == nil {
				t.Errorf("ParseProcCode(%q) succeeded", c.code)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseProcCode(%q): %v", c.code, err)
			continue
		}
		for i, want := range c.in {
			if pc.Input(i) != want {
				t.Errorf("%q input %d = %v, want %v", c.code, i, pc.Input(i), want)
			}
		}
		for i, want := range c.out {
			if pc.Output(i) != want {
				t.Errorf("%q output %d = %v, want %v", c.code, i, pc.Output(i), want)
			}
		}
	}
	// Repetition of the last character.
	pc, _ := ParseProcCode("a/ah")
	if pc.Output(5) != Push {
		t.Error("output code repetition failed")
	}
}

// fakeSpecs provides processing codes by class-name convention:
// PushSrc "/h", PullSink "l/", Agn "a/a", Q "h/l", PushSink "h/".
type fakeSpecs struct{}

func (fakeSpecs) ProcessingCode(class string) (string, bool) {
	switch class {
	case "PushSrc":
		return "/h", true
	case "PullSink":
		return "l/", true
	case "Agn", "Agn2":
		return "a/a", true
	case "Q":
		return "h/l", true
	case "PushSink":
		return "h/", true
	case "Mixed":
		return "a/ah", true
	}
	return "", false
}

func (fakeSpecs) FlowCode(class string) (string, bool) { return "x/x", true }

func (fakeSpecs) PortCounts(class, config string) (PortRange, PortRange, bool) {
	return AtLeast(0), AtLeast(0), true
}

func TestAssignProcessingChain(t *testing.T) {
	r := New()
	s := r.MustAddElement("s", "PushSrc", "", "")
	a := r.MustAddElement("a", "Agn", "", "")
	q := r.MustAddElement("q", "Q", "", "")
	b := r.MustAddElement("b", "Agn2", "", "")
	k := r.MustAddElement("k", "PullSink", "", "")
	r.Connect(s, 0, a, 0)
	r.Connect(a, 0, q, 0)
	r.Connect(q, 0, b, 0)
	r.Connect(b, 0, k, 0)
	pr, err := AssignProcessing(r, fakeSpecs{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.InputKind(a, 0) != Push || pr.OutputKind(a, 0) != Push {
		t.Error("agnostic element before queue should be push")
	}
	if pr.InputKind(b, 0) != Pull || pr.OutputKind(b, 0) != Pull {
		t.Error("agnostic element after queue should be pull")
	}
	if pr.OutputKind(s, 0) != Push || pr.InputKind(k, 0) != Pull {
		t.Error("endpoint kinds wrong")
	}
}

func TestAssignProcessingConflict(t *testing.T) {
	r := New()
	s := r.MustAddElement("s", "PushSrc", "", "")
	k := r.MustAddElement("k", "PullSink", "", "")
	r.Connect(s, 0, k, 0) // push -> pull with no queue: conflict
	if _, err := AssignProcessing(r, fakeSpecs{}); err == nil {
		t.Error("push->pull conflict not detected")
	}
}

func TestAssignProcessingAgnosticPropagatesThroughElement(t *testing.T) {
	// s(push) -> a(agnostic) ; a -> k1(pull sink) must conflict because
	// a's agnostic ports are tied.
	r := New()
	s := r.MustAddElement("s", "PushSrc", "", "")
	a := r.MustAddElement("a", "Agn", "", "")
	k := r.MustAddElement("k", "PullSink", "", "")
	r.Connect(s, 0, a, 0)
	r.Connect(a, 0, k, 0)
	if _, err := AssignProcessing(r, fakeSpecs{}); err == nil {
		t.Error("conflict through agnostic element not detected")
	}
}

func TestAssignProcessingUnknownClass(t *testing.T) {
	r := New()
	r.MustAddElement("x", "Zorp", "", "")
	if _, err := AssignProcessing(r, fakeSpecs{}); err == nil {
		t.Error("unknown class not reported")
	}
}

func TestAssignProcessingMixedCode(t *testing.T) {
	// Mixed is "a/ah": output 1 is hard push, input and output 0
	// agnostic. Feed from a pull context via port 0.
	r := New()
	q := r.MustAddElement("q", "Q", "", "")
	m := r.MustAddElement("m", "Mixed", "", "")
	k := r.MustAddElement("k", "PullSink", "", "")
	p := r.MustAddElement("p", "PushSink", "", "")
	r.Connect(q, 0, m, 0)
	r.Connect(m, 0, k, 0)
	r.Connect(m, 1, p, 0)
	pr, err := AssignProcessing(r, fakeSpecs{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.InputKind(m, 0) != Pull || pr.OutputKind(m, 0) != Pull {
		t.Error("agnostic ports should resolve pull")
	}
	if pr.OutputKind(m, 1) != Push {
		t.Error("hard push port changed")
	}
}

func TestFlowCode(t *testing.T) {
	fc, err := ParseFlowCode("x/x")
	if err != nil {
		t.Fatal(err)
	}
	if !fc.Connects(0, 0) || !fc.Connects(2, 5) {
		t.Error("x/x should connect everything")
	}
	fc2, _ := ParseFlowCode("xy/x")
	if !fc2.Connects(0, 0) || fc2.Connects(1, 0) {
		t.Error("xy/x semantics wrong")
	}
	fc3, _ := ParseFlowCode("#/#")
	if !fc3.Connects(1, 1) || fc3.Connects(0, 1) {
		t.Error("#/# semantics wrong")
	}
	for _, bad := range []string{"", "x", "x/y/z", "/x", "x/"} {
		if _, err := ParseFlowCode(bad); err == nil {
			t.Errorf("ParseFlowCode(%q) succeeded", bad)
		}
	}
}

func TestPortRange(t *testing.T) {
	if !Exactly(2).Contains(2) || Exactly(2).Contains(3) {
		t.Error("Exactly wrong")
	}
	if !AtLeast(1).Contains(100) || AtLeast(1).Contains(0) {
		t.Error("AtLeast wrong")
	}
	if !Between(1, 3).Contains(2) || Between(1, 3).Contains(4) {
		t.Error("Between wrong")
	}
}

type exactSpecs struct{}

func (exactSpecs) ProcessingCode(class string) (string, bool) { return "a/a", true }
func (exactSpecs) FlowCode(class string) (string, bool)       { return "x/x", true }
func (exactSpecs) PortCounts(class, config string) (PortRange, PortRange, bool) {
	if class == "OneOne" {
		return Exactly(1), Exactly(1), true
	}
	return AtLeast(0), AtLeast(0), true
}

func TestCheckPorts(t *testing.T) {
	r := New()
	x := r.MustAddElement("x", "OneOne", "", "")
	y := r.MustAddElement("y", "Any", "", "")
	r.Connect(x, 0, y, 0)
	r.Connect(x, 1, y, 1) // second output: violates Exactly(1)
	errs := CheckPorts(r, exactSpecs{})
	if len(errs) != 2 { // 0 inputs (wants 1) and 2 outputs (wants 1)
		t.Errorf("errors = %v", errs)
	}
}

func TestCheckConnectionDiscipline(t *testing.T) {
	r := New()
	s := r.MustAddElement("s", "PushSrc", "", "")
	k1 := r.MustAddElement("k1", "PushSink", "", "")
	k2 := r.MustAddElement("k2", "PushSink", "", "")
	r.Connect(s, 0, k1, 0)
	r.Connect(s, 0, k2, 0) // two connections from one push output
	pr, err := AssignProcessing(r, fakeSpecs{})
	if err != nil {
		t.Fatal(err)
	}
	errs := CheckConnectionDiscipline(r, pr)
	if len(errs) == 0 {
		t.Error("double push connection not reported")
	}
}

func TestConnectionInvariantProperty(t *testing.T) {
	// Property: after any sequence of connect/disconnect pairs, the
	// connection set has no duplicates.
	f := func(ops []uint8) bool {
		r := New()
		a := r.MustAddElement("a", "A", "", "")
		b := r.MustAddElement("b", "B", "", "")
		for _, op := range ops {
			fp, tp := int(op>>4)&3, int(op>>2)&3
			if op&1 == 0 {
				r.Connect(a, fp, b, tp)
			} else {
				r.Disconnect(a, fp, b, tp)
			}
		}
		seen := map[Connection]bool{}
		for _, c := range r.Conns {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConnsFromTo(t *testing.T) {
	r, a, b, c := build(t)
	if got := r.ConnsFrom(a); len(got) != 1 || got[0].To != b {
		t.Errorf("ConnsFrom(a) = %v", got)
	}
	if got := r.ConnsTo(c); len(got) != 1 || got[0].From != b {
		t.Errorf("ConnsTo(c) = %v", got)
	}
	if r.ConnsFrom(c) != nil || r.ConnsTo(a) != nil {
		t.Error("endpoint connections wrong")
	}
}

func TestLiveIndicesAndDead(t *testing.T) {
	r, a, b, _ := build(t)
	r.RemoveElement(b)
	if !r.Dead(b) || r.Dead(a) {
		t.Error("Dead flags wrong")
	}
	live := r.LiveIndices()
	if len(live) != 2 {
		t.Fatalf("live = %v", live)
	}
	for _, i := range live {
		if i == b {
			t.Error("dead element listed live")
		}
	}
}

func TestSortConnsDeterministic(t *testing.T) {
	r := New()
	a := r.MustAddElement("a", "A", "", "")
	b := r.MustAddElement("b", "B", "", "")
	r.Connect(b, 1, a, 0)
	r.Connect(a, 1, b, 0)
	r.Connect(a, 0, b, 1)
	r.SortConns()
	want := []Connection{{a, 0, b, 1}, {a, 1, b, 0}, {b, 1, a, 0}}
	for i, c := range r.Conns {
		if c != want[i] {
			t.Fatalf("sorted conns = %v", r.Conns)
		}
	}
}

func TestRequireDeduplicates(t *testing.T) {
	r := New()
	r.Require("x")
	r.Require("x")
	r.Require("y")
	if len(r.Requirements) != 2 {
		t.Errorf("requirements = %v", r.Requirements)
	}
}

func TestStringRendersGraph(t *testing.T) {
	r, _, _, _ := build(t)
	s := r.String()
	for _, want := range []string{"a :: A", "a[0] -> [0]b", "b[0] -> [0]c"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if Push.String() != "push" || Pull.String() != "pull" || Agnostic.String() != "agnostic" {
		t.Error("PortKind strings wrong")
	}
}
