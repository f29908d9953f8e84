package e2e

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDrivesOnlyThePublicAPI pins the end-to-end harness's contract:
// of the program it imports package repro alone, and it sets no
// Transform or ShardWorkers field, so changes to the defaults are what
// the workloads see.
func TestDrivesOnlyThePublicAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "repro" || strings.HasPrefix(path, "repro/perfbench/") || !strings.HasPrefix(path, "repro") {
				continue
			}
			t.Errorf("%s imports %s; the end-to-end harness may use only package repro", name, path)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var field string
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					field = id.Name
				}
			case *ast.SelectorExpr:
				field = n.Sel.Name
			}
			if field == "Transform" || field == "ShardWorkers" {
				t.Errorf("%s: sets or reads %s; leave it at its zero value", fset.Position(n.Pos()), field)
			}
			return true
		})
	}
}
