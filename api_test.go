package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// queryPathPackages are the layers of the query path whose operations
// each have one exported entry point.
var queryPathPackages = []string{"fastquery", "fastbit", "scan", "histogram", "colstore"}

// twinAllowed lists the exported X that may still sit beside an XCtx or
// XCost, each with the reason it stays.
var twinAllowed = map[string]string{
	"histogram.Compute2D": "perfbench/trace.go calls the ctx-less form; it goes with the next benchmark change",
}

// TestOneEntryPointPerQueryOperation fails when a query-path package
// exports both X and XCtx (or XCost) for the same function or method:
// a wrapper that only passes context.Background() or a nil cost is a
// second way to do one thing.
func TestOneEntryPointPerQueryOperation(t *testing.T) {
	var twins []string
	for _, pkg := range queryPathPackages {
		names := exportedNames(t, filepath.Join("internal", pkg))
		for name := range names {
			dot := strings.LastIndexByte(name, '.')
			recv, base := name[:dot+1], name[dot+1:]
			for _, suffix := range []string{"Ctx", "Cost"} {
				if !names[recv+base+suffix] {
					continue
				}
				key := pkg + "." + strings.TrimPrefix(name, ".")
				if _, ok := twinAllowed[key]; ok {
					continue
				}
				twins = append(twins, key+" beside "+base+suffix)
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("exported twin: %s; keep one entry point and point callers at it", tw)
	}
}

// TestTwinAllowListIsLive keeps the allow-list honest: every entry must
// still name a function that exists beside its Ctx form.
func TestTwinAllowListIsLive(t *testing.T) {
	for key := range twinAllowed {
		pkg, name, _ := strings.Cut(key, ".")
		names := exportedNames(t, filepath.Join("internal", pkg))
		if !names["."+name] || !names["."+name+"Ctx"] {
			t.Errorf("allow-listed twin %s no longer exists; drop it from twinAllowed", key)
		}
	}
}

// exportedNames returns the exported functions and methods declared in
// the non-test files of dir, keyed "Recv.Name" for methods and ".Name"
// for package-level functions.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				names[recvName(fn)+"."+fn.Name.Name] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("%s: no exported functions found", dir)
	}
	return names
}

// recvName returns the receiver's type name ("" for a function).
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
