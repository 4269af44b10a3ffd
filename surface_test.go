package mdhf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed names the exported functions and methods in internal/ that
// no non-test Go references, each with the reason it stays. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under internal/.
var surfaceAllowed = map[string]string{
	"cluster.NodeError.Unwrap":   "errors.Is and errors.As reach it through the error interface",
	"storage.FaultError.Unwrap":  "errors.Is and errors.As reach it through the error interface",
	"des.eventHeap.Less":         "container/heap reaches it through heap.Interface",
	"des.eventHeap.Swap":         "container/heap reaches it through heap.Interface",
	"bitmap.Bitset.Equal":        "the bit-for-bit oracle tests in other packages compare bitmaps with",
	"data.Table.LeafMembers":     "the row oracle tests in other packages check a fragment's members with",
	"storage.DiskSet.ReviveDisk": "the public inverse of FailDisk, served through mdhf.DiskSet",
	"experiments.MultiUser":      "run by the root BenchmarkExtMultiUser reproduction benchmark",
	"experiments.Clustering":     "run by the root BenchmarkExtClustering reproduction benchmark",
	"experiments.ArchComparison": "run by the root BenchmarkExtArchComparison reproduction benchmark",
}

// TestNoTestOnlySurface fails on every exported function or method in
// internal/ that no non-test Go of the repository (bench/, cmd/ and
// examples/ included) references, unless surfaceAllowed gives it a reason;
// an allowlist entry that is referenced, or names nothing, fails too. A
// function counts as used when pkg.F appears anywhere, or a bare F inside
// its own package; a method when its name appears anywhere outside a
// function declaration's name. The method rule can miss a dead method whose
// name another identifier shares, but it never flags a live one.
func TestNoTestOnlySurface(t *testing.T) {
	type decl struct{ key, use string }
	var decls []decl
	used := map[string]bool{} // "name", "dir name" (bare) and "import/path.name"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if pkg, ok := strings.CutPrefix(dir, "internal/"); ok && fd.Name.IsExported() {
				if fd.Recv == nil {
					decls = append(decls, decl{pkg + "." + fd.Name.Name, "repro/" + dir + "." + fd.Name.Name})
				} else {
					decls = append(decls, decl{pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name, fd.Name.Name})
				}
			}
		}
		selected := map[*ast.Ident]bool{} // x.F's F is never a bare use
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
					if !selected[n] {
						used["repro/"+dir+"."+n.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported function in internal/")
	}
	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		_, allowed := surfaceAllowed[d.key]
		switch {
		case used[d.use] && allowed:
			t.Errorf("%s is allowlisted but has a non-test caller: drop the entry", d.key)
		case !used[d.use] && !allowed:
			unused = append(unused, d.key)
		}
	}
	for key := range surfaceAllowed {
		if !seen[key] {
			t.Errorf("%s is allowlisted but declares nothing: drop the entry", key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported from internal/ but only tests call it: delete it, move it into its package's tests, or allowlist it with a reason", key)
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
