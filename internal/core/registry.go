package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Spec is an element class specification: the externally visible
// properties tools share with the runtime (§5.3) plus the factory the
// runtime uses to instantiate the class.
type Spec struct {
	// Name is the element class name ("Queue").
	Name string
	// Processing is the textual processing code ("a/ah").
	Processing string
	// Flow is the packet flow code ("x/x").
	Flow string
	// Ports returns the legal input/output port count ranges for a
	// given configuration (a Classifier's output count depends on its
	// patterns). Nil means any number of either.
	Ports func(config string) (in, out graph.PortRange)
	// Make constructs an unconfigured instance. Nil marks a
	// specification-only class (tools know it; the runtime cannot
	// instantiate it).
	Make func() Element
	// WorkCycles is the per-invocation cost-model charge for this
	// class; data-dependent extras are charged by the element itself.
	WorkCycles int64
	// Devirtualized marks generated classes whose packet transfers
	// the cost model charges as direct calls (click-devirtualize
	// output).
	Devirtualized bool
}

// Registry maps class names to specifications. It implements
// graph.SpecSource, so graph analyses and optimizer tools use the same
// specifications as the runtime — the property §5.3 calls "a common
// understanding between tools and Click".
type Registry struct {
	specs map[string]*Spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{specs: map[string]*Spec{}} }

// Register adds a specification. Registering a duplicate name panics:
// class names are a global namespace and a collision is a programming
// error.
func (rg *Registry) Register(s *Spec) {
	if s.Name == "" {
		panic("core: registering spec with empty name")
	}
	if _, dup := rg.specs[s.Name]; dup {
		panic(fmt.Sprintf("core: duplicate element class %q", s.Name))
	}
	rg.specs[s.Name] = s
}

// RegisterDynamic adds a tool-generated specification (fastclassifier or
// devirtualize output), replacing any previous dynamic registration of
// the same name. This parallels Click compiling and dynamically linking
// the code a tool attached to a configuration archive.
func (rg *Registry) RegisterDynamic(s *Spec) {
	if s.Name == "" {
		panic("core: registering spec with empty name")
	}
	rg.specs[s.Name] = s
}

// Lookup returns the specification for a class.
func (rg *Registry) Lookup(name string) (*Spec, bool) {
	s, ok := rg.specs[name]
	return s, ok
}

// Classes returns all registered class names, sorted.
func (rg *Registry) Classes() []string {
	out := make([]string, 0, len(rg.specs))
	for name := range rg.specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone returns a registry with the same specifications, so dynamic
// registrations for one configuration don't leak into another.
func (rg *Registry) Clone() *Registry {
	n := NewRegistry()
	for k, v := range rg.specs {
		n.specs[k] = v
	}
	return n
}

// ProcessingCode implements graph.SpecSource.
func (rg *Registry) ProcessingCode(class string) (string, bool) {
	s, ok := rg.specs[class]
	if !ok {
		return "", false
	}
	return s.Processing, true
}

// FlowCode implements graph.SpecSource.
func (rg *Registry) FlowCode(class string) (string, bool) {
	s, ok := rg.specs[class]
	if !ok {
		return "", false
	}
	if s.Flow == "" {
		return "x/x", true
	}
	return s.Flow, true
}

// PortCounts implements graph.SpecSource.
func (rg *Registry) PortCounts(class, config string) (graph.PortRange, graph.PortRange, bool) {
	s, ok := rg.specs[class]
	if !ok {
		return graph.PortRange{}, graph.PortRange{}, false
	}
	if s.Ports == nil {
		return graph.AtLeast(0), graph.AtLeast(0), true
	}
	in, out := s.Ports(config)
	return in, out, true
}

var _ graph.SpecSource = (*Registry)(nil)
