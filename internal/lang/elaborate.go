package lang

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// Pseudo-element class names used inside compound element bodies.
const (
	InputPseudo  = "input"
	OutputPseudo = "output"
)

// Element classes used for materialized pseudoelements in pattern
// graphs (see ElaborateClassDef).
const (
	InputPseudoClass  = "<input>"
	OutputPseudoClass = "<output>"
)

// classScope implements lexical scoping for compound class definitions.
type classScope struct {
	parent  *classScope
	classes map[string]*ClassDefStmt
}

func (s *classScope) lookup(name string) *ClassDefStmt {
	for sc := s; sc != nil; sc = sc.parent {
		if def, ok := sc.classes[name]; ok {
			return def
		}
	}
	return nil
}

// portEnd is one concrete (element, port) endpoint.
type portEnd struct {
	elem int
	port int
}

// handle is what an element name resolves to during elaboration: either
// a concrete graph element or a compound instance with pseudo ports.
type handle struct {
	concrete int // element index, or -1
	comp     *compoundInstance
}

// compoundInstance records how a compound element's inputs and outputs
// splice into the surrounding graph.
type compoundInstance struct {
	// inputs[p] lists the inner endpoints that "input [p]" connects to.
	inputs map[int][]portEnd
	// outputs[p] lists the inner endpoints that connect to "output [p]".
	outputs map[int][]portEnd
}

type elaborator struct {
	r    *graph.Router
	file string
	// materialize makes the input/output pseudoelements real graph
	// elements (classes InputPseudoClass/OutputPseudoClass) instead of
	// splice points; click-xform elaborates pattern bodies this way.
	materialize bool
	pseudoIn    int
	pseudoOut   int
}

// Elaborate instantiates a parsed File into a router graph, expanding
// compound element classes (the optimizers always work on flattened
// configurations, §6.2). Inner elements of a compound instance named
// "arp" get names like "arp/q".
func Elaborate(f *File, file string) (*graph.Router, error) {
	e := &elaborator{r: graph.New(), file: file}
	root := &classScope{classes: map[string]*ClassDefStmt{}}
	if _, err := e.elabFile(f, "", nil, root); err != nil {
		return nil, err
	}
	for _, req := range f.Requirements {
		e.r.Require(req)
	}
	return e.r, nil
}

// ParseRouter parses and elaborates in one step.
func ParseRouter(src, file string) (*graph.Router, error) {
	f, err := Parse(src, file)
	if err != nil {
		return nil, err
	}
	return Elaborate(f, file)
}

// elabFile elaborates the statements of one file or compound body.
// prefix is prepended to element names ("arp/"); params maps formal
// names ("$a") to argument text. It returns the pseudo ports when the
// body uses input/output.
func (e *elaborator) elabFile(f *File, prefix string, params map[string]string, parent *classScope) (*compoundInstance, error) {
	sc := &classScope{parent: parent, classes: map[string]*ClassDefStmt{}}
	inst := &compoundInstance{inputs: map[int][]portEnd{}, outputs: map[int][]portEnd{}}
	handles := map[string]*handle{}

	// Pass 1: collect class definitions and element declarations so
	// connections may reference elements declared later in the file.
	var declErr error
	declare := func(d *DeclStmt) {
		if declErr != nil {
			return
		}
		for _, name := range d.Names {
			if name == "" {
				// A bare anonymous declaration statement
				// ("ScheduleInfo(...);") instantiates an element that
				// is never referenced by name.
				if _, err := e.makeElement("", d.Class, d.Config, params, sc, d.Line); err != nil {
					declErr = err
				}
				continue
			}
			if name == InputPseudo || name == OutputPseudo {
				declErr = e.errf(d.Line, "cannot declare element named %q", name)
				return
			}
			if _, dup := handles[name]; dup {
				declErr = e.errf(d.Line, "redeclaration of element %q", name)
				return
			}
			h, err := e.makeElement(prefix+name, d.Class, d.Config, params, sc, d.Line)
			if err != nil {
				declErr = err
				return
			}
			handles[name] = h
		}
	}
	for _, st := range f.Stmts {
		switch st := st.(type) {
		case *ClassDefStmt:
			if _, dup := sc.classes[st.Name]; dup {
				return nil, e.errf(st.Line, "redefinition of element class %q", st.Name)
			}
			sc.classes[st.Name] = st
		case *DeclStmt:
			declare(st)
		case *ConnStmt:
			for _, end := range st.Ends {
				if end.Decl != nil && end.Decl.Names[0] != "" {
					declare(end.Decl)
				}
			}
		}
		if declErr != nil {
			return nil, declErr
		}
	}

	// Pass 2: wire connections.
	for _, st := range f.Stmts {
		conn, ok := st.(*ConnStmt)
		if !ok {
			continue
		}
		if len(conn.Ends) < 2 {
			return nil, e.errf(conn.Line, "connection needs at least two elements")
		}
		ends := make([]*resolvedEnd, len(conn.Ends))
		for i := range conn.Ends {
			re, err := e.resolveEnd(&conn.Ends[i], handles, prefix, params, sc, conn.Line, inst)
			if err != nil {
				return nil, err
			}
			ends[i] = re
		}
		for i := 0; i+1 < len(ends); i++ {
			if err := e.connect(ends[i], ends[i+1], inst, conn.Line); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

type resolvedEnd struct {
	h       *handle
	pseudo  string // InputPseudo, OutputPseudo, or ""
	inPort  int
	outPort int
}

func (e *elaborator) resolveEnd(end *ConnEnd, handles map[string]*handle, prefix string, params map[string]string, sc *classScope, line int, inst *compoundInstance) (*resolvedEnd, error) {
	re := &resolvedEnd{inPort: end.InPort, outPort: end.OutPort}
	switch {
	case end.Name == InputPseudo || end.Name == OutputPseudo:
		if e.materialize {
			idx, err := e.pseudoElement(end.Name, line)
			if err != nil {
				return nil, err
			}
			re.h = &handle{concrete: idx}
			break
		}
		re.pseudo = end.Name
	case end.Decl != nil && end.Decl.Names[0] == "":
		// Anonymous inline declaration: fresh element per occurrence.
		h, err := e.makeElement("", end.Decl.Class, end.Decl.Config, params, sc, line)
		if err != nil {
			return nil, err
		}
		re.h = h
	case end.Decl != nil:
		re.h = handles[end.Name] // declared in pass 1
	default:
		if h, ok := handles[end.Name]; ok {
			re.h = h
		} else {
			// A bare name that matches no declaration is an anonymous
			// element of that class ("... -> Discard;").
			h, err := e.makeElement("", end.Name, "", params, sc, line)
			if err != nil {
				return nil, err
			}
			re.h = h
			// Repeated bare uses of the same class create separate
			// elements, so do not record the handle.
		}
	}
	return re, nil
}

// makeElement creates a concrete element or expands a compound instance.
// name == "" requests an anonymous element.
func (e *elaborator) makeElement(name, class, config string, params map[string]string, sc *classScope, line int) (*handle, error) {
	config = substituteParams(config, params)
	if def := sc.lookup(class); def != nil {
		args := SplitConfig(config)
		if len(args) != len(def.Formals) {
			return nil, e.errf(line, "compound class %q expects %d argument(s), got %d", class, len(def.Formals), len(args))
		}
		inner := map[string]string{}
		for i, formal := range def.Formals {
			inner[formal] = args[i]
		}
		if name == "" {
			e.r.AnonCounter++
			name = fmt.Sprintf("%s@%d", class, e.r.AnonCounter)
		}
		inst, err := e.elabFile(def.Body, name+"/", inner, sc)
		if err != nil {
			return nil, err
		}
		return &handle{concrete: -1, comp: inst}, nil
	}
	idx, err := e.r.AddElement(name, class, config, fmt.Sprintf("%s:%d", e.file, line))
	if err != nil {
		return nil, e.errf(line, "%v", err)
	}
	return &handle{concrete: idx}, nil
}

// outEnds returns the concrete source endpoints of a resolved end used
// as a connection source with output port p. Connecting from a compound
// output port the class never declared is an error (the connection
// would otherwise vanish silently).
func outEnds(re *resolvedEnd, p int) ([]portEnd, error) {
	if re.h.concrete >= 0 {
		return []portEnd{{re.h.concrete, p}}, nil
	}
	ends := re.h.comp.outputs[p]
	if len(ends) == 0 {
		return nil, fmt.Errorf("compound element has no output port %d", p)
	}
	return ends, nil
}

// inEnds returns the concrete target endpoints of a resolved end used as
// a connection target with input port p.
func inEnds(re *resolvedEnd, p int) ([]portEnd, error) {
	if re.h.concrete >= 0 {
		return []portEnd{{re.h.concrete, p}}, nil
	}
	ends := re.h.comp.inputs[p]
	if len(ends) == 0 {
		return nil, fmt.Errorf("compound element has no input port %d", p)
	}
	return ends, nil
}

func (e *elaborator) connect(from, to *resolvedEnd, inst *compoundInstance, line int) error {
	fp := from.outPort
	if fp < 0 {
		fp = 0
	}
	tp := to.inPort
	if tp < 0 {
		tp = 0
	}
	switch {
	case from.pseudo == OutputPseudo:
		return e.errf(line, "'output' used as connection source")
	case to.pseudo == InputPseudo:
		return e.errf(line, "'input' used as connection target")
	case from.pseudo == InputPseudo && to.pseudo == OutputPseudo:
		return e.errf(line, "direct input -> output connection not supported")
	case from.pseudo == InputPseudo:
		// input [fp] -> [tp] target: packets entering compound port fp
		// go to the target's input tp.
		targets, err := inEnds(to, tp)
		if err != nil {
			return e.errf(line, "%v", err)
		}
		inst.inputs[fp] = append(inst.inputs[fp], targets...)
	case to.pseudo == OutputPseudo:
		sources, err := outEnds(from, fp)
		if err != nil {
			return e.errf(line, "%v", err)
		}
		inst.outputs[tp] = append(inst.outputs[tp], sources...)
	default:
		sources, err := outEnds(from, fp)
		if err != nil {
			return e.errf(line, "%v", err)
		}
		targets, err := inEnds(to, tp)
		if err != nil {
			return e.errf(line, "%v", err)
		}
		for _, s := range sources {
			for _, t := range targets {
				e.r.Connect(s.elem, s.port, t.elem, t.port)
			}
		}
	}
	return nil
}

func (e *elaborator) errf(line int, format string, args ...interface{}) error {
	return &Error{File: e.file, Line: line, Col: 1, Msg: fmt.Sprintf(format, args...)}
}

// pseudoElement lazily creates the singleton materialized input or
// output pseudoelement.
func (e *elaborator) pseudoElement(name string, line int) (int, error) {
	if name == InputPseudo {
		if e.pseudoIn < 0 {
			idx, err := e.r.AddElement(InputPseudo, InputPseudoClass, "", fmt.Sprintf("%s:%d", e.file, line))
			if err != nil {
				return -1, err
			}
			e.pseudoIn = idx
		}
		return e.pseudoIn, nil
	}
	if e.pseudoOut < 0 {
		idx, err := e.r.AddElement(OutputPseudo, OutputPseudoClass, "", fmt.Sprintf("%s:%d", e.file, line))
		if err != nil {
			return -1, err
		}
		e.pseudoOut = idx
	}
	return e.pseudoOut, nil
}

// ElaborateClassDef elaborates the body of a compound element class
// parsed from file into a standalone graph in which the compound's
// input/output ports appear as real elements named "input" and "output"
// with classes InputPseudoClass and OutputPseudoClass. click-xform uses
// this to turn pattern and replacement definitions into matchable
// graphs. Unknown $parameters in configuration strings are left intact
// (they are click-xform's wildcards).
func ElaborateClassDef(def *ClassDefStmt, file string) (*graph.Router, error) {
	if len(def.Formals) > 0 {
		return nil, fmt.Errorf("%s: pattern class %q must not declare formals (use $wildcards in configs directly)", file, def.Name)
	}
	e := &elaborator{r: graph.New(), file: file, materialize: true, pseudoIn: -1, pseudoOut: -1}
	root := &classScope{classes: map[string]*ClassDefStmt{}}
	if _, err := e.elabFile(def.Body, "", nil, root); err != nil {
		return nil, err
	}
	return e.r, nil
}

// substituteParams replaces occurrences of formal parameters ("$a") in a
// configuration string. Substitution respects word boundaries: "$ab" is
// not an occurrence of "$a".
func substituteParams(config string, params map[string]string) string {
	if len(params) == 0 || !strings.Contains(config, "$") {
		return config
	}
	var b strings.Builder
	for i := 0; i < len(config); {
		if config[i] != '$' {
			b.WriteByte(config[i])
			i++
			continue
		}
		j := i + 1
		for j < len(config) && (isIdentByte(config[j]) && config[j] != '/' || isDigit(config[j])) {
			j++
		}
		name := config[i:j]
		if val, ok := params[name]; ok {
			b.WriteString(val)
		} else {
			b.WriteString(name)
		}
		i = j
	}
	return b.String()
}
