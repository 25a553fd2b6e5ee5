package classifier

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func internTestProgram(t *testing.T, rules []string) *Program {
	t.Helper()
	p, err := BuildIPFilterProgram(rules)
	if err != nil {
		t.Fatal(err)
	}
	p.Optimize()
	return p
}

// intern interns p under its canonical text.
func intern(table *InternTable, p *Program) *InternEntry { return table.Intern(p.String(), p) }

func TestInternTableSharedFDD(t *testing.T) {
	table := NewInternTable()
	rules := []string{"allow udp && dst port 53", "deny all"}
	a := internTestProgram(t, rules)
	b := internTestProgram(t, rules) // equal program, distinct object
	c := internTestProgram(t, []string{"allow tcp && dst port 80", "deny all"})

	ea := intern(table, a)
	if !strings.HasPrefix(ea.Name, SharedClassPrefix) {
		t.Errorf("interned name %q lacks prefix %q", ea.Name, SharedClassPrefix)
	}
	if ea.Compiled == nil || ea.Nodes != len(a.Exprs) {
		t.Errorf("entry not populated: %+v", ea)
	}
	if eb := intern(table, b); eb != ea {
		t.Error("equal programs interned to different entries")
	}
	ec := intern(table, c)
	if ec == ea || ec.Name == ea.Name {
		t.Error("distinct programs share an entry")
	}
	if e, ok := table.Lookup(ea.Name); !ok || e != ea {
		t.Errorf("lookup %q = %v, %v", ea.Name, e, ok)
	}

	// Names are content-derived: a fresh table interning the same
	// program in a different order mints the same name.
	other := NewInternTable()
	intern(other, c)
	if got := intern(other, internTestProgram(t, rules)); got.Name != ea.Name {
		t.Errorf("content-addressed name differs across tables: %q vs %q", got.Name, ea.Name)
	}

	// Residency follows reference counts, not table membership.
	table.Retain([]string{ea.Name})
	table.Retain([]string{ea.Name, ec.Name})
	s := table.Stats()
	if s.Programs != 2 || s.Refs != 3 {
		t.Errorf("stats after retains = %+v, want 2 programs, 3 refs", s)
	}
	if want := 2*ea.Nodes + ec.Nodes; s.UnsharedNodes != want {
		t.Errorf("unshared nodes = %d, want %d", s.UnsharedNodes, want)
	}
	if want := ea.Nodes + ec.Nodes; s.ResidentNodes != want {
		t.Errorf("resident nodes = %d, want %d", s.ResidentNodes, want)
	}
	table.Release([]string{ea.Name, ec.Name})
	table.Release([]string{ea.Name})
	s = table.Stats()
	if s.Programs != 0 || s.Refs != 0 || s.ResidentNodes != 0 {
		t.Errorf("stats after releases = %+v, want empty residency", s)
	}
	// Zero-referenced entries stay canonical and revive as hits.
	if e := intern(table, internTestProgram(t, rules)); e != ea {
		t.Error("released entry was not revived")
	}
	if s := table.Stats(); s.Hits == 0 {
		t.Error("revival did not count as an intern hit")
	}
}

// TestInternStatsMatchRecount drives random retains and releases
// (unknown names and releases past zero included) and checks after each
// that the running totals Stats returns equal a recount of the entries.
func TestInternStatsMatchRecount(t *testing.T) {
	table := NewInternTable()
	var names []string
	for port := 0; port < 4; port++ {
		rules := []string{fmt.Sprintf("allow udp && dst port %d", 50+port), "deny all"}
		names = append(names, intern(table, internTestProgram(t, rules)).Name)
	}
	names = append(names, "FusedShared_unknown")
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		pick := []string{names[r.Intn(len(names))], names[r.Intn(len(names))]}
		if r.Intn(2) == 0 {
			table.Retain(pick)
		} else {
			table.Release(pick)
		}
		var want InternStats
		for _, e := range table.byName {
			if e.refs > 0 {
				want.Programs++
				want.Refs += e.refs
				want.ResidentNodes += e.Nodes
				want.UnsharedNodes += e.refs * e.Nodes
			}
		}
		got := table.Stats()
		got.Lookups, got.Hits = 0, 0
		if got != want {
			t.Fatalf("step %d: stats %+v, recount %+v", step, got, want)
		}
	}
}
