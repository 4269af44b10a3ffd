package mdhf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed names the functions and methods TestNoTestOnlySurface
// checks that no non-test Go uses, each with the reason it stays. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg being the directory under
// internal/, or the import path outside it.
var surfaceAllowed = map[string]string{
	"bitmap.Bitset.Equal":          "the bit-for-bit oracle tests in other packages compare bitmaps with",
	"bitmap.Bitset.Get":            "the bit-for-bit oracle tests in other packages read single bits with",
	"bitmap.EncodedIndex.Bitmap":   "the pinned index digest in internal/engine reads each stored bitmap with",
	"dimtable.Catalog.FormatQuery": "the public inverse of ParseQuery, served through Warehouse.Catalog; FuzzQueryText round-trips through it",
	"data.Table.LeafMembers":       "the row oracle tests in other packages check a fragment's members with",
	"storage.DiskSet.ReviveDisk":   "the public inverse of FailDisk, served through mdhf.DiskSet",
}

// TestNoTestOnlySurface fails on every function or method declared in
// internal/, and every unexported one declared outside it and bench/,
// that no non-test Go of the repository uses (the bench/ module, cmd/ and
// examples/ included), unless surfaceAllowed gives it a reason; an
// allowlist entry that is used, or names nothing, fails too. Uses are
// resolved by type (testOnlySurface), so a dead method stays dead whatever
// other method shares its name.
func TestNoTestOnlySurface(t *testing.T) {
	decls := testOnlySurface(loadRepo(t))
	if len(decls) == 0 {
		t.Fatal("found no function in internal/")
	}
	var unused []string
	for key, used := range decls {
		_, allowed := surfaceAllowed[key]
		switch {
		case used && allowed:
			t.Errorf("%s is allowlisted but has a non-test use: drop the entry", key)
		case !used && !allowed:
			unused = append(unused, key)
		}
	}
	for key := range surfaceAllowed {
		if _, ok := decls[key]; !ok {
			t.Errorf("%s is allowlisted but declares nothing: drop the entry", key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is declared in internal/ but only tests use it: delete it, move it into its package's tests, or allowlist it with a reason", key)
	}
}

// TestSurfaceResolvesByType holds testOnlySurface to its rule on
// in-memory packages: a method reached only through an interface call is
// used, and so is one reached only through a generic's type parameter; a
// dead method whose name a live method of another type shares is not; a
// generic type's method called through an instantiation is used.
func TestSurfaceResolvesByType(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for path, src := range map[string]string{
		"repro/internal/a": `package a

type Sizer interface{ Size() int }

type Box struct{}

func (Box) Size() int { return 1 }

type Adder[T any] interface{ Plus(T) T }

type Count struct{ n int }

func (c Count) Plus(o Count) Count { return Count{c.n + o.n} }

func Sum[T Adder[T]](xs []T) (t T) {
	for _, x := range xs {
		t = t.Plus(x)
	}
	return t
}

type Live struct{}

func (Live) Close() {}

type Dead struct{}

func (Dead) Close() {}

type List[T any] struct{ items []T }

func (l *List[T]) Len() int { return len(l.items) }

func (l *List[T]) Cap() int { return cap(l.items) }
`,
		"repro/cmd/b": `package main

import "repro/internal/a"

func main() {
	var s a.Sizer = a.Box{}
	_, _ = s.Size(), a.Sum([]a.Count{})
	a.Live{}.Close()
	var l a.List[int]
	_ = l.Len()
}
`,
	} {
		f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = []*ast.File{f}
	}
	r, err := typeCheck(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	got := testOnlySurface(r)
	want := map[string]bool{
		"a.Box.Size": true, "a.Count.Plus": true, "a.Sum": true,
		"a.Live.Close": true, "a.Dead.Close": false,
		"a.List.Len": true, "a.List.Cap": false,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("used: %v, want %v", got, want)
	}
}

// testOnlySurface returns every function and method declared under
// repro/internal/ in the type-checked packages, and every unexported one
// outside it and the bench module, keyed as surfaceAllowed is, with
// whether the packages use it. A function or method is used when an
// identifier or selector outside its own body resolves to it, a generic
// one through any instantiation; when it is the method of a type that
// implements an interface whose method of that name is called (a call
// through a type parameter is one through its constraint); or when it is
// a String, Error or Unwrap method, which fmt and errors reach.
func testOnlySurface(r *repo) map[string]bool {
	files, pkgs, infos := r.files, r.pkgs, r.infos
	paths := r.paths()

	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func
	var cands []types.Type // the declared types, their instantiations and every type argument
	for _, path := range paths {
		info := infos[path]
		for _, f := range files[path] {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					used[fn.Origin()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalls = append(ifaceCalls, fn)
					}
					return true
				})
			}
		}
		for _, inst := range info.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				cands = append(cands, inst.TypeArgs.At(i))
			}
			if named, ok := inst.Type.(*types.Named); ok {
				cands = append(cands, named)
			}
		}
		scope := pkgs[path].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					cands = append(cands, named)
				}
			}
		}
	}
	mark := func(t types.Type, m *types.Func) {
		if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	// hasAll is Implements for an interface instantiated with type
	// parameters (a generic's constraint Counts[St], or its Recycler[A]):
	// the method names suffice.
	hasAll := func(t types.Type, iface *types.Interface) bool {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj == nil {
				return false
			}
		}
		return true
	}
	for _, m := range ifaceCalls {
		recv := m.Type().(*types.Signature).Recv().Type()
		iface := recv.Underlying().(*types.Interface)
		generic := false
		if named, ok := recv.(*types.Named); ok {
			for i := 0; i < named.TypeArgs().Len(); i++ {
				generic = generic || isTypeParam(named.TypeArgs().At(i))
			}
		}
		for _, t := range cands {
			for _, t := range []types.Type{t, types.NewPointer(t)} {
				if !types.IsInterface(t) && (types.Implements(t, iface) || generic && hasAll(t, iface)) {
					mark(t, m)
				}
			}
		}
	}

	decls := map[string]bool{}
	for _, path := range paths {
		pkg, internal := strings.CutPrefix(path, "repro/internal/")
		if !internal && strings.HasPrefix(path+"/", "repro/bench/") {
			continue
		}
		for _, f := range files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "main" || fd.Name.Name == "_" {
					continue
				}
				fn := infos[path].Defs[fd.Name].(*types.Func)
				key := pkg + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					key = pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
					switch fn.Name() {
					case "String", "Error", "Unwrap":
						used[fn] = true
					}
				}
				if internal || !fn.Exported() {
					decls[key] = used[fn]
				}
			}
		}
	}
	return decls
}

// isTypeParam reports whether t is a type parameter.
func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}
