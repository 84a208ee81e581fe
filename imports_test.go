package panda

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported keeps the tree swept: every package
// under internal/ must be imported by some non-test file outside itself —
// in this module or in bench/, which compiles against it. A package only its
// own tests reach is unreachable code; either something real imports it or
// it is deleted.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "panda"
	internal := map[string]bool{} // package with non-test source → is under internal/
	imported := map[string]bool{} // import path → imported from another package
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		internal[pkg] = strings.HasPrefix(pkg, module+"/internal/")
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != pkg {
				imported[p] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !internal[module+"/internal/core"] {
		t.Fatal("internal/core not found; is the test running at the module root?")
	}
	var orphans []string
	for pkg, isInternal := range internal {
		if isInternal && !imported[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s has no importer outside itself among non-test files: reach it from production code or delete it", pkg)
	}
}
