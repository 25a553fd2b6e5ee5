package tool

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/opt"
)

func TestReadWriteRoundTripPlain(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.click")
	out := filepath.Join(dir, "out.click")
	if err := os.WriteFile(in, []byte("a :: Idle -> q :: Queue(5) -> b :: Idle;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := ReadConfig(in, Registry())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumElements() != 3 {
		t.Fatalf("elements = %d", g.NumElements())
	}
	if err := WriteConfig(g, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lang.IsArchive(data) {
		t.Error("plain config written as archive")
	}
	g2, err := ReadConfig(out, Registry())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumElements() != 3 || len(g2.Conns) != len(g.Conns) {
		t.Error("round trip changed the graph")
	}
}

func TestReadWriteRoundTripArchive(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "opt.click")

	// Produce an optimized config with an archive (generated classes).
	g, err := lang.ParseRouter(iprouter.Config(iprouter.Interfaces(2)), "ipr")
	if err != nil {
		t.Fatal(err)
	}
	reg := Registry()
	if err := opt.FastClassifier(g, reg); err != nil {
		t.Fatal(err)
	}
	if err := opt.Devirtualize(g, reg, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteConfig(g, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !lang.IsArchive(data) {
		t.Fatal("optimized config should be an archive")
	}

	// A fresh registry must be able to instantiate it after ReadConfig
	// installs the archive's dynamic specs.
	reg2 := Registry()
	g2, err := ReadConfig(out, reg2)
	if err != nil {
		t.Fatal(err)
	}
	if errs := opt.CheckInstantiable(g2, reg2); len(errs) > 0 {
		t.Fatalf("reloaded config not instantiable: %v", errs[0])
	}
	if _, err := core.Build(g2, reg2, core.BuildOptions{Env: map[string]interface{}{}}); err == nil {
		// Build fails on missing devices, which is fine; anything else
		// is not.
	} else if !strings.Contains(err.Error(), "no device") {
		t.Fatalf("unexpected build error: %v", err)
	}
}

func TestReadConfigMissingFile(t *testing.T) {
	if _, err := ReadConfig("/nonexistent/path.click", Registry()); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadConfigParseError(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bad.click")
	os.WriteFile(in, []byte("a :: ;"), 0o644)
	if _, err := ReadConfig(in, Registry()); err == nil {
		t.Error("bad config accepted")
	}
}

// TestReadConfigRejectsTruncatedProgramsMember: a programs member whose
// class line has no newline is a configuration error, not a crash.
func TestReadConfigRejectsTruncatedProgramsMember(t *testing.T) {
	for _, member := range []string{"fuse/programs", "fastclassifier/programs"} {
		in := filepath.Join(t.TempDir(), "bad.click")
		data := lang.PackConfig("Idle -> Discard;\n", []lang.ArchiveMember{{Name: member, Data: []byte("class X")}})
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadConfig(in, Registry()); err == nil {
			t.Errorf("%s member %q accepted", member, "class X")
		}
	}
}
