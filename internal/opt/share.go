package opt

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/graph"
)

// ShareFusedPrograms rewrites a fused configuration to use a
// process-wide hash-cons table: every generated FusedClassifier_N (or
// previously shared) class in g is interned, renamed to the table's
// content-addressed FusedShared_<hash> class, and registered in reg
// against the table's single shared Compiled matcher. Tenants whose
// rulesets compose to equal diagrams thereby share one read-only
// decision diagram instead of carrying per-namespace copies, and —
// because the shared names depend only on program content — the
// rewritten graph is identical regardless of which tenant was admitted
// first.
//
// The programs are the ones Fuse registered in reg for every class its
// archive lists, keyed by their archive text: none is parsed or printed
// again, and the table compiles only the ones it has not seen. It must
// therefore run after Fuse on the same registry, before another Fuse
// reuses the FusedClassifier_N names.
//
// It returns the sorted shared class names g uses, for the caller's
// reference counting (classifier.InternTable.Retain/Release). A graph
// with no fused programs returns nil, nil.
func ShareFusedPrograms(g *graph.Router, reg *core.Registry, table *classifier.InternTable) ([]string, error) {
	data, ok := g.Archive["fuse/programs"]
	if !ok {
		return nil, nil
	}
	progs, err := splitProgramsArchive(data)
	if err != nil {
		return nil, fmt.Errorf("opt: share: %v", err)
	}
	if len(progs) == 0 {
		return nil, nil
	}
	rename := map[string]string{}
	entry := map[string]*classifier.InternEntry{}
	text := map[string]string{}
	for _, np := range progs {
		prog := specProgram(reg, np.name)
		if prog == nil {
			return nil, fmt.Errorf("opt: share: class %q has no registered program", np.name)
		}
		e := table.Intern(np.text, prog)
		rename[np.name] = e.Name
		entry[e.Name], text[e.Name] = e, np.text
	}

	// Rewrite element classes; only names actually instantiated count
	// as used (the archive may carry programs from superseded runs).
	used := map[string]bool{}
	for _, i := range g.LiveIndices() {
		el := g.Element(i)
		if nn, ok := rename[el.Class]; ok {
			el.Class = nn
			used[nn] = true
		}
	}
	names := make([]string, 0, len(used))
	for n := range used {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := entry[n]
		registerClassifierSpec(reg, n, e.Program, true, func() *classifier.Compiled { return e.Compiled })
	}

	// Rewrite the archive so InstallArchive round-trips on the shared
	// names: the programs member lists only the used canonical entries,
	// and the per-class generated sources follow the rename.
	var doc strings.Builder
	for _, n := range names {
		fmt.Fprintf(&doc, "class %s\n%send\n", n, text[n])
	}
	g.Archive["fuse/programs"] = []byte(doc.String())
	for old, nn := range rename {
		if src, ok := g.Archive["fuse/"+old+".go"]; ok {
			delete(g.Archive, "fuse/"+old+".go")
			if used[nn] {
				if _, have := g.Archive["fuse/"+nn+".go"]; !have {
					g.Archive["fuse/"+nn+".go"] = bytes.ReplaceAll(src, []byte(old), []byte(nn))
				}
			}
		}
	}
	return names, nil
}
