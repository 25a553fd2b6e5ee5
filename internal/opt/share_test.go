package opt

import (
	"testing"

	"repro/internal/classifier"
	"repro/internal/elements"
	"repro/internal/lang"
)

// TestShareInternsArchivePrograms: a graph whose archive carries a
// FusedClassifier_N from an earlier fuse run, fused on a registry where
// another configuration's run has since taken that name, interns each
// archived program under its own text.
func TestShareInternsArchivePrograms(t *testing.T) {
	reg, table := elements.NewRegistry(), classifier.NewInternTable()
	fuse := func(port int) map[string][]byte {
		t.Helper()
		g, err := lang.ParseRouter(fuseRunsConfig(port), "t")
		if err != nil {
			t.Fatal(err)
		}
		if err := Fuse(g, reg); err != nil {
			t.Fatal(err)
		}
		return g.Archive
	}
	old := fuse(0)["fuse/programs"]
	fuse(1) // FusedClassifier_0 now names port 1's program in reg
	g, err := lang.ParseRouter(fuseRunsConfig(1), "t")
	if err != nil {
		t.Fatal(err)
	}
	g.Archive = map[string][]byte{"fuse/programs": old}
	if err := Fuse(g, reg); err != nil {
		t.Fatal(err)
	}
	progs, err := splitProgramsArchive(g.Archive["fuse/programs"])
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("archive lists %d programs, want the carried one and port 1's", len(progs))
	}
	if _, err := ShareFusedPrograms(g, reg, table); err != nil {
		t.Fatal(err)
	}
	for _, np := range progs {
		prog, err := classifier.ParseProgram(np.text)
		if err != nil {
			t.Fatal(err)
		}
		if e := table.Intern(np.text, prog); e.Program.String() != np.text {
			t.Errorf("%s: interned program\n%s\nunder the text\n%s", np.name, e.Program.String(), np.text)
		}
	}
}
