package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyBaseWritesScalarTransfers holds the module to one transfer
// shape: an element writes PushBatch and PullBatch (or a SimpleAction),
// and Base.Push and Base.Pull, which run a burst of one, are the only
// scalar transfers. It parses every non-test Go file of the module and
// fails on any other Push(int, *packet.Packet) or
// Pull(int) *packet.Packet method, which would shadow Base's.
func TestOnlyBaseWritesScalarTransfers(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			// Dot directories hold build output; a directory with its own
			// go.mod (bench) is another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !scalarTransfer(fd) {
				continue
			}
			recv := types.ExprString(fd.Recv.List[0].Type)
			if f.Name.Name == "core" && recv == "*Base" {
				continue
			}
			t.Errorf("%s: %s declares its own %s; write %sBatch", fset.Position(fd.Pos()), recv, fd.Name.Name, fd.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed %d files; the walk missed the module", files)
	}
}

// scalarTransfer reports whether fd has the shape of Element's Push or
// Pull.
func scalarTransfer(fd *ast.FuncDecl) bool {
	switch fd.Name.Name {
	case "Push":
		return fieldTypes(fd.Type.Params) == "int,*packet.Packet" && fieldTypes(fd.Type.Results) == ""
	case "Pull":
		return fieldTypes(fd.Type.Params) == "int" && fieldTypes(fd.Type.Results) == "*packet.Packet"
	}
	return false
}

// fieldTypes lists a parameter or result list's types, one per value.
func fieldTypes(fl *ast.FieldList) string {
	if fl == nil {
		return ""
	}
	var ts []string
	for _, f := range fl.List {
		for n := max(len(f.Names), 1); n > 0; n-- {
			ts = append(ts, types.ExprString(f.Type))
		}
	}
	return strings.Join(ts, ",")
}
