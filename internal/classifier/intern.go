package classifier

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// InternTable is a hash-cons table for fused classifier programs,
// shared across every configuration a process hosts. Within one
// program SpecializeFDD already hash-conses subtrees; the table lifts
// that property across the combine boundary: two tenants whose
// rulesets compose to the same decision diagram share one canonical
// Program and one Compiled matcher instead of carrying private copies,
// so resident diagram nodes grow with the number of *distinct*
// rulesets, not the number of tenants.
//
// Entries are content-addressed: the class name is derived from the
// program's canonical text, so the name a ruleset gets is independent
// of admission order — identical configurations produce identical
// combined graphs no matter the create/swap/delete history.
//
// Interned programs and their matchers are read-only (Compiled.Match
// is pure); per-instance counters live in the elements, never here, so
// sharing a diagram between tenants shares no mutable state. Reference
// counts track how many live configurations use each entry, which is
// what makes the resident-node statistics honest: an entry whose users
// are all gone stops counting as resident, and re-admission revives it
// as a cache hit.
type InternTable struct {
	mu      sync.Mutex
	byKey   map[string]*InternEntry // canonical program text -> entry
	byName  map[string]*InternEntry
	lookups int64
	hits    int64
	// live sums the referenced entries as Retain and Release move
	// them, so Stats costs nothing however many entries the table holds.
	live InternStats
}

// InternEntry is one canonical fused program.
type InternEntry struct {
	// Name is the content-derived shared class name.
	Name string
	// Program is the canonical decision diagram. Read-only.
	Program *Program
	// Compiled is the shared matcher closure DAG. Read-only.
	Compiled *Compiled
	// Nodes is the diagram's node count (len(Program.Exprs)).
	Nodes int

	refs int
}

// NewInternTable returns an empty table.
func NewInternTable() *InternTable {
	return &InternTable{
		byKey:  map[string]*InternEntry{},
		byName: map[string]*InternEntry{},
	}
}

// SharedClassPrefix starts every content-addressed class name the
// table mints.
const SharedClassPrefix = "FusedShared_"

// Intern returns the canonical entry for prog, whose text the caller
// holds (text == prog.String()), compiling it only on first sight.
// Equal programs return the identical entry; prog is frozen from here.
func (t *InternTable) Intern(text string, prog *Program) *InternEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lookups++
	if e, ok := t.byKey[text]; ok {
		t.hits++
		return e
	}
	sum := sha256.Sum256([]byte(text))
	// 48 hash bits are plenty for a process-local namespace; extend on
	// the (astronomical) chance of a truncated-digest collision.
	name := ""
	for n := 6; n <= len(sum); n++ {
		name = SharedClassPrefix + hex.EncodeToString(sum[:n])
		if _, taken := t.byName[name]; !taken {
			break
		}
	}
	e := &InternEntry{
		Name:     name,
		Program:  prog,
		Compiled: Compile(prog),
		Nodes:    len(prog.Exprs),
	}
	t.byKey[text] = e
	t.byName[name] = e
	return e
}

// Lookup returns the entry registered under a shared class name.
func (t *InternTable) Lookup(name string) (*InternEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byName[name]
	return e, ok
}

// Retain records one configuration using the named entries (a tenant
// admission). Unknown names are ignored.
func (t *InternTable) Retain(names []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range names {
		if e, ok := t.byName[n]; ok {
			e.refs++
			t.count(e, 1)
		}
	}
}

// Release undoes a Retain when a configuration leaves (tenant delete
// or swap-away). Entries stay in the table at zero references — they
// are canonical and may be revived — but stop counting as resident.
func (t *InternTable) Release(names []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range names {
		if e, ok := t.byName[n]; ok && e.refs > 0 {
			t.count(e, -1)
			e.refs--
		}
	}
}

// count moves the live totals by one reference to e, taken (d = 1,
// after the increment) or dropped (d = -1, before the decrement).
// Callers hold t.mu.
func (t *InternTable) count(e *InternEntry, d int) {
	if e.refs == 1 {
		t.live.Programs += d
		t.live.ResidentNodes += d * e.Nodes
	}
	t.live.Refs += d
	t.live.UnsharedNodes += d * e.Nodes
}

// InternStats is a sharing snapshot. ResidentNodes is the memory
// actually held by referenced diagrams; UnsharedNodes is what
// residency would cost if every reference carried a private copy — the
// ratio is the sharing factor (mgmt's TestSharingSublinear pins it).
type InternStats struct {
	Programs      int   `json:"programs"`       // distinct referenced programs
	Refs          int   `json:"refs"`           // total references across configurations
	ResidentNodes int   `json:"resident_nodes"` // sum of nodes over referenced programs
	UnsharedNodes int   `json:"unshared_nodes"` // sum of refs x nodes
	Lookups       int64 `json:"lookups"`
	Hits          int64 `json:"hits"`
}

// Stats snapshots the table.
func (t *InternTable) Stats() InternStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.live
	s.Lookups, s.Hits = t.lookups, t.hits
	return s
}
