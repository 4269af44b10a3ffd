package mdhf

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repo is the repository's Go, both modules: every package's non-test
// files type-checked together, standard-library imports from source, and
// its test files parsed only.
type repo struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	tests map[string][]*ast.File // import path → test files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
}

var loaded struct {
	once sync.Once
	r    *repo
	err  error
}

// loadRepo returns the repository, read and type-checked once per test
// binary for the tests that hold its structure.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library they import from source: 4 s, 20 s under -race, on 2 vCPUs")
	}
	loaded.once.Do(func() { loaded.r, loaded.err = readRepo() })
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.r
}

// readRepo parses every package under the working directory, the
// repository's root, and type-checks their non-test files.
func readRepo() (*repo, error) {
	fset := token.NewFileSet()
	files, tests := map[string][]*ast.File{}, map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		if err != nil {
			return err
		}
		path := "repro"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir) // the bench module is repro/bench
		}
		parse := func(dst map[string][]*ast.File, names []string) error {
			for _, name := range names {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				dst[path] = append(dst[path], f)
			}
			return nil
		}
		if err := parse(files, bp.GoFiles); err != nil {
			return err
		}
		return parse(tests, append(bp.TestGoFiles, bp.XTestGoFiles...))
	})
	if err != nil {
		return nil, err
	}
	r, err := typeCheck(fset, files)
	if err != nil {
		return nil, err
	}
	r.tests = tests
	return r, nil
}

// typeCheck type-checks the packages, given by import path with their
// non-test files, standard-library imports from source.
func typeCheck(fset *token.FileSet, files map[string][]*ast.File) (*repo, error) {
	r := &repo{fset: fset, files: files, pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	std := importer.ForCompiler(fset, "source", nil)
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := files[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p := r.pkgs[path]; p != nil {
			return p, nil
		}
		info := &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		r.pkgs[path], r.infos[path] = p, info
		return p, nil
	}
	for _, path := range r.paths() {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// paths returns the import paths of the type-checked packages, sorted.
func (r *repo) paths() []string {
	paths := make([]string, 0, len(r.files))
	for path := range r.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// The "Settled" bullets of ROADMAP.md that TestArchitecture's rows hold.
const (
	settledGolden     = `"The paper's numbers have one home" (PR 49)`
	settledCounters   = `"One declaration per counter" (PR 47)`
	settledPagedFile  = `"One paged file, one disk set per on-disk store" (PR 36)`
	settledColumns    = `"An ungrouped fold is the column kernel" (PRs 30, 44)`
	settledOneDriver  = `"A lone query is a batch of one" (PR 40)`
	settledSharedFold = `"A shared scan folds each member with the column kernel" (PR 33)`
	settledBitsets    = `"The in-memory engine keeps its indices as Bitsets" (PR 34)`
	settledFacade     = `"A single store serves through epoch.Store directly" (PR 35)`
	settledOnePool    = `"One worker pool per process" (PR 42)`
	settledDeltas     = `"A delta segment is plain columns selected by leaf ranges" (PRs 28, 29)`
	settledPartition  = `"A load is one partition pass" (PR 38)`
	settledEncodeOnce = `"A builder encodes each leaf member once per layout" (PR 37)`
	settledStatsPoll  = `"A stats poll is counters only" (PR 39)`
	settledRecycled   = `"Group partials are recycled with the call's partial set" (PR 41)`
	settledAnswerOnly = `"A query allocates only its answer" (PR 48)`
	settledGranules   = `"A fragment's granules are read and folded on the same worker" (PR 45)`
)

// archRule is one row of TestArchitecture: a structural property of the
// non-test Go that holds a Settled bullet, and what breaks it.
type archRule struct {
	name, settled, rule string
	violations          func(a *arch) []string
}

// TestArchitecture holds the Settled decisions of ROADMAP.md by the
// structure of the code: each row resolves uses by type (types.Info.Uses,
// the enclosing function, struct field types, file imports), so a
// decision broken under a new name fails as one broken under the old.
// Objects are named "pkg.Name" or "pkg.Type.Method", pkg being the
// directory under internal/, or mdhf for the root package.
func TestArchitecture(t *testing.T) {
	a := &arch{repo: loadRepo(t), t: t, uses: map[types.Object][]site{}}
	a.walk(everywhere, func(s site, n ast.Node, info *types.Info) {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path()+"/", "repro/") {
				a.uses[origin(obj)] = append(a.uses[origin(obj)], s)
			}
		}
	})
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			a.t = t
			for _, v := range r.violations(a) {
				t.Errorf("%s\n\tholds Settled bullet %s\n\tbroken: %s", r.rule, r.settled, v)
			}
		})
	}
	for _, pkg := range scoped {
		if a.pkgs[importPath(pkg)] == nil {
			t.Errorf("a row's scope names package %s, which does not exist", pkg)
		}
	}
}

var archRules = []archRule{
	{"BenchmarksSimulateNothing", settledGolden,
		"no Benchmark of either module reaches internal/experiments or internal/simpad: the golden files' tests are the one home of the paper's numbers",
		(*arch).benchReach},
	{"DeltaRowsCountedOnce", settledCounters,
		"kernel.Stats and storage.IOStats have no field or method named for delta rows: a query's delta rows are counted once, in kernel.Out.DeltaRows",
		func(a *arch) []string {
			var out []string
			for _, key := range []string{"kernel.Stats", "storage.IOStats"} {
				if tn := a.lookup(key); tn != nil {
					ms := types.NewMethodSet(types.NewPointer(tn.Type()))
					var members []types.Object
					for _, f := range fields(tn) {
						members = append(members, f)
					}
					for i := range ms.Len() {
						members = append(members, ms.At(i).Obj())
					}
					for _, m := range members {
						if strings.Contains(m.Name(), "DeltaRows") {
							out = append(out, a.at(m.Pos(), key+"."+m.Name()))
						}
					}
				}
			}
			return out
		}},
	{"ServingStatsEmbedsCounters", settledCounters,
		"ServingStats embeds epoch.Counters and declares no field of the same name as one of its fields: the epoch store's counters are never copied",
		func(a *arch) []string {
			ss, ctr := a.lookup("mdhf.ServingStats"), a.lookup("epoch.Counters")
			if ss == nil || ctr == nil {
				return nil
			}
			var out []string
			embeds := false
			for _, f := range fields(ss) {
				embeds = embeds || f.Embedded() && types.Identical(f.Type(), ctr.Type())
				for _, c := range fields(ctr) {
					if c.Name() == f.Name() {
						out = append(out, a.at(f.Pos(), "ServingStats."+f.Name()+" copies epoch.Counters."+c.Name()))
					}
				}
			}
			if !embeds {
				out = append(out, a.at(ss.Pos(), "ServingStats does not embed epoch.Counters"))
			}
			return out
		}},
	{"BatcherKeepsNoCounters", settledCounters,
		"exec.Batcher and its batch group declare no counter field (an integer or a sync/atomic value): the epoch store's SharedStats is the one count of batches",
		func(a *arch) []string {
			var out []string
			for _, key := range []string{"exec.Batcher", "exec.batchGroup"} {
				for _, f := range fields(a.lookup(key)) {
					b, basic := f.Type().(*types.Basic)
					n, named := f.Type().(*types.Named)
					if basic && b.Info()&types.IsInteger != 0 || named && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
						out = append(out, a.at(f.Pos(), key+"."+f.Name()+" is a counter"))
					}
				}
			}
			return out
		}},
	{"OneDriver", settledOneDriver,
		"kernel.Shared is the one caller of exec.Take and exec.ReduceShardedOn outside internal/exec: every query runs through the one driver, a lone query as a batch of one",
		rows(callers("exec.Take", mainModule, "exec.", "kernel.Shared"),
			callers("exec.ReduceShardedOn", mainModule, "exec.", "kernel.Shared"))},
	{"EpochRunsQueriesInScan", settledOneDriver,
		"internal/epoch hands queries to a backend (a function or method of internal/engine, internal/storage or internal/kernel taking a frag.Query) only in Store.scan: no lone-query arm beside the batch",
		func(a *arch) []string {
			query, backend := a.lookup("frag.Query"), in("engine", "storage", "kernel")
			return a.usesWhere(in("epoch"), func(s site, obj types.Object) bool {
				fn, ok := obj.(*types.Func)
				return ok && query != nil && backend(fn.Pkg().Path()) && mentions(fn.Type().(*types.Signature).Params(), query) && s.fn != "epoch.Store.scan"
			})
		}},
	{"NoDriverInABackend", settledOneDriver,
		"nothing in internal/engine or internal/storage uses an exec.Map* or exec.Reduce* function: validation, enumeration, the delta fold, the merge and the dispatch live in internal/kernel",
		func(a *arch) []string { return a.usesWhere(in("engine", "storage"), isMapReduce) }},
	{"NoScatterOnThePool", settledOnePool,
		"nothing in internal/cluster uses an exec.Map* or exec.Reduce* function: the coordinator's scatter waits on nodes from goroutines, never on a pool",
		func(a *arch) []string { return a.usesWhere(in("cluster"), isMapReduce) }},
	{"PoolStarters", settledOnePool,
		"only Open, cluster.NewNode and the disk-curve experiment call exec.NewScheduler: a warehouse starts one pool, a node process one of its own",
		callers("exec.NewScheduler", mainModule, "exec.", "mdhf.Open", "cluster.NewNode", "experiments.DiskScalingCurve")},
	{"PoolClosers", settledOnePool,
		"only Warehouse.Close, a node process's NewNode and Node.Close, and the disk-curve experiment close a pool: a store never closes one",
		callers("exec.Scheduler.Close", mainModule, "exec.", "mdhf.Warehouse.Close", "cluster.NewNode", "cluster.Node.Close", "experiments.DiskScalingCurve")},
	{"NoCompressedInMemoryOrDeltas", settledBitsets,
		"internal/engine, internal/kernel and internal/frag use no object whose type mentions bitmap.Compressed: WAH is an on-disk format only, and delta rows carry no bitmaps",
		compressedUsers(in("engine", "kernel", "frag"))},
	{"CompressedOnlyInTheBitmapFormat", settledBitsets,
		"in internal/storage only the bitmap file's format code touches bitmap.Compressed: a stored bitmap is decoded into a Bitset at the one seam, and no fold runs on WAH words",
		compressedUsers(in("storage"), "storage.BitmapFile.buildBlock", "storage.BitmapFile.writeBlock", "storage.encodeCompressed",
			"storage.BitmapFile.decodeInto", "storage.decodeCompressedInto", "storage.BitmapFile.ReadCompressedFragment",
			"storage.buildScratch", "storage.scratch", "storage.scratch.operand")},
	{"NoTableBesideABackend", settledStatsPoll,
		"no struct declared in internal/epoch, internal/storage or internal/engine holds a data.Table, and no function there returns one: compaction is fragment-local, through the one fragment writer",
		func(a *arch) []string {
			tab := a.lookup("data.Table")
			var out []string
			for _, pkg := range []string{"epoch", "storage", "engine"} {
				for _, obj := range a.infos["repro/internal/"+pkg].Defs {
					switch obj := obj.(type) {
					case *types.TypeName:
						if _, ok := obj.Type().Underlying().(*types.Struct); ok && mentions(obj.Type().Underlying(), tab) {
							out = append(out, a.at(obj.Pos(), obj.Name()+" holds a data.Table"))
						}
					case *types.Func:
						if mentions(obj.Type().(*types.Signature).Results(), tab) {
							out = append(out, a.at(obj.Pos(), obj.Name()+" returns a data.Table"))
						}
					}
				}
			}
			return out
		}},
	{"RowAtATimeOnlyInTheFallback", settledSharedFold,
		"outside internal/kernel's per-row GROUP BY fallback (AddCols) only the engine's scan oracle (Scan, ScanGrouped) adds a row at a time (Aggregate.AddRow, Grouped.AddRow): a fold, solo or shared, is the column kernel over whole columns",
		rows(callers("kernel.Aggregate.AddRow", everywhere, "kernel.AddCols", "engine.Scan", "engine.ScanGrouped"),
			callers("kernel.Grouped.AddRow", everywhere, "kernel.AddCols", "engine.Scan", "engine.ScanGrouped"))},
	{"NoAggregateSumsOutsideTheKernel", settledSharedFold,
		"no code outside internal/kernel adds to a field of kernel.Aggregate (+=, -=, ++): measures are summed by the kernel's folds only",
		func(a *arch) []string {
			agg := a.lookup("kernel.Aggregate")
			return a.find(not(in("kernel")), func(_ site, n ast.Node, info *types.Info) string {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
						lhs = n.Lhs
					}
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				}
				for _, e := range lhs {
					if sel, ok := e.(*ast.SelectorExpr); ok && isFieldOf(info.Uses[sel.Sel], agg) {
						return "adds to Aggregate." + sel.Sel.Name
					}
				}
				return ""
			})
		}},
	{"NoPerMemberFragmentList", settledSharedFold,
		"internal/kernel never calls frag.Spec.FragmentIDs: the batch plan walks the members' regions, with no per-member fragment list",
		callers("frag.Spec.FragmentIDs", in("kernel"))},
	{"OnePageLayout", settledColumns,
		`only internal/storage/pagekernel.go imports "unsafe", and Store.pageCols, its column view of a page, is used only by the page's column fold (Store.fold), the fact writer and the bitmap builder: no second page layout`,
		rows(func(a *arch) []string {
			var out []string
			for _, path := range a.paths() {
				for _, f := range a.files[path] {
					for _, imp := range f.Imports {
						if file := a.fset.Position(f.Pos()).Filename; imp.Path.Value == `"unsafe"` && filepath.ToSlash(file) != "internal/storage/pagekernel.go" {
							out = append(out, a.at(imp.Pos(), `imports "unsafe"`))
						}
					}
				}
			}
			return out
		}, callers("storage.Store.pageCols", everywhere, "storage.Store.fold", "storage.factWriter.add", "storage.BitmapFile.buildBlock"))},
	{"SealedSegmentsNeverRewritten", settledDeltas,
		"every call of DeltaLog.AppendSegment passes replaceTail false, and nothing assigns to a field of a frag.DeltaSegment: a sealed segment is never extended or re-journalled",
		func(a *arch) []string {
			appendSeg, seg := a.lookup("storage.DeltaLog.AppendSegment"), a.lookup("frag.DeltaSegment")
			return a.find(mainModule, func(_ site, n ast.Node, info *types.Info) string {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && appendSeg != nil && origin(info.Uses[sel.Sel]) == appendSeg {
						if v := info.Types[n.Args[1]].Value; v == nil || constant.BoolVal(v) {
							return "AppendSegment may replace the tail"
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						if sel, ok := e.(*ast.SelectorExpr); ok && isFieldOf(info.Uses[sel.Sel], seg) {
							return "assigns DeltaSegment." + sel.Sel.Name
						}
					}
				}
				return ""
			})
		}},
	{"OneFacade", settledFacade,
		"the root package declares one Execute method, PreparedQuery's: a multi-node warehouse is Open(..., WithNodes(n)), not a second query type",
		func(a *arch) []string {
			var out []string
			for _, obj := range a.infos["repro"].Defs {
				if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && tn.Name() != "PreparedQuery" {
					if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, tn.Pkg(), "Execute"); m != nil {
						out = append(out, a.at(m.Pos(), tn.Name()+" has an Execute method"))
					}
				}
			}
			return out
		}},
	{"OneRetryLoop", settledPagedFile,
		"retryRead has one caller, the paged file's one physical read",
		callers("storage.retryRead", everywhere, "storage.pagedFile.read")},
	{"NoNilDiskSet", settledPagedFile,
		"internal/storage never compares a *DiskSet with nil: every on-disk store reads through a disk set, one disk unless declustered",
		func(a *arch) []string {
			ds := a.lookup("storage.DiskSet")
			return a.find(in("storage"), func(_ site, n ast.Node, info *types.Info) string {
				if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) && (info.Types[b.X].IsNil() || info.Types[b.Y].IsNil()) {
					for _, e := range []ast.Expr{b.X, b.Y} {
						if p, ok := info.Types[e].Type.(*types.Pointer); ok && ds != nil && p.Elem() == ds.Type() {
							return "compares a *DiskSet with nil"
						}
					}
				}
				return ""
			})
		}},
	{"OneDelaySleep", settledPagedFile,
		"in internal/storage only the disk queue (DiskSet.do, DiskSet.readAccess) calls time.Sleep: no private delay beside the disk set's",
		func(a *arch) []string {
			return a.find(in("storage"), func(s site, n ast.Node, info *types.Info) string {
				if id, ok := n.(*ast.Ident); ok && s.fn != "storage.DiskSet.do" && s.fn != "storage.DiskSet.readAccess" {
					if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
						return "calls time.Sleep"
					}
				}
				return ""
			})
		}},
	{"OneGoroutineInStorage", settledGranules,
		"in internal/storage only NewCompactor starts a goroutine: no reader goroutine or prefetch pipeline beside the worker that folds",
		func(a *arch) []string {
			return a.find(in("storage"), func(s site, n ast.Node, _ *types.Info) string {
				if _, ok := n.(*ast.GoStmt); ok && s.fn != "storage.NewCompactor" {
					return "starts a goroutine"
				}
				return ""
			})
		}},
	{"OneFactReadPath", settledGranules,
		"a query's fact pages are read only by ReadGranuleCtx, from Executor.forEachGranule, on the worker that folds them: the pooled read serves it and the bitmap units only, and the unpooled read only the bitmap builder's ReadPagesInto",
		rows(callers("storage.Store.ReadGranuleCtx", mainModule, "storage.Store.ReadGranule", "storage.Executor.forEachGranule"),
			callers("storage.pagedFile.readPooled", mainModule, "storage.Store.ReadGranuleCtx", "storage.unitSet.payload"),
			callers("storage.pagedFile.read", mainModule, "storage.pagedFile.readPooled", "storage.Store.ReadPagesInto"),
			callers("storage.Store.ReadPagesInto", mainModule, "storage.BitmapFile.buildBlock"))},
	{"EncodeOncePerLayout", settledEncodeOnce,
		"Layout.Encode's one caller is Layout.Codes, the table fill, and Dimension.Ancestor is called in internal/storage, internal/bitmap and internal/engine only by Layout.Encode and the engine's scan oracle (scanMatch): no per-row encoding in a builder",
		rows(callers("bitmap.Layout.Encode", everywhere, "bitmap.Layout.Codes"),
			callers("schema.Dimension.Ancestor", in("storage", "bitmap", "engine"), "bitmap.Layout.Encode", "engine.scanMatch"))},
	{"OnePartitionPass", settledPartition,
		"frag.Spec.IDOf routes a table's rows only in kernel.NewPartition (the store's and the coordinator's appends route their new rows), and internal/storage declares no map from fragment id to a row-index list",
		rows(callers("frag.Spec.IDOf", mainModule, "kernel.NewPartition", "epoch.Store.Append", "cluster.Coordinator.Append"),
			func(a *arch) []string {
				var out []string
				for _, obj := range a.infos["repro/internal/storage"].Defs {
					if v, ok := obj.(*types.Var); ok {
						if m, ok := v.Type().Underlying().(*types.Map); ok && types.Identical(m.Key(), types.Typ[types.Int64]) &&
							types.Identical(m.Elem().Underlying(), types.NewSlice(types.Typ[types.Int32])) {
							out = append(out, a.at(v.Pos(), v.Name()+" maps fragments to row lists"))
						}
					}
				}
				return out
			})},
	{"StatsPollCopiesNoMix", settledStatsPoll,
		"Warehouse.ServingStats calls nothing declared in sharedscan.go (the observed query mix), nor Warehouse.DiskStats or DiskSet.Stats (the per-disk slice)",
		func(a *arch) []string {
			diskStats, perDisk := a.lookup("mdhf.Warehouse.DiskStats"), a.lookup("storage.DiskSet.Stats")
			return a.usesWhere(in("mdhf"), func(s site, obj types.Object) bool {
				_, fn := obj.(*types.Func)
				return s.fn == "mdhf.Warehouse.ServingStats" && (obj == diskStats || obj == perDisk ||
					fn && filepath.Base(a.fset.Position(obj.Pos()).Filename) == "sharedscan.go")
			})
		}},
	{"NoDiskSnapshotPerQuery", settledRecycled,
		"in the root package only Warehouse.DiskStats calls DiskSet.Stats: a query's Stats carries no copy of the warehouse-wide disk counters",
		callers("storage.DiskSet.Stats", in("mdhf"), "mdhf.Warehouse.DiskStats")},
	{"PartialsEmptiedNotDropped", settledRecycled,
		"internal/exec never clears a call's worker partials (clear of a []worker) and never allocates a partial (new of a type parameter, but as a dereferenced zero value): a call's partial set is recycled",
		func(a *arch) []string {
			zero := map[ast.Expr]bool{} // *new(A): a zero value, not an allocation
			return a.find(in("exec"), func(_ site, n ast.Node, info *types.Info) string {
				if star, ok := n.(*ast.StarExpr); ok {
					zero[star.X] = true
				}
				switch t, name := builtinArg(n, info); name {
				case "clear":
					if sl, ok := t.Underlying().(*types.Slice); ok {
						if w, ok := sl.Elem().(*types.Named); ok && w.Obj().Name() == "worker" {
							return "clears the worker partials"
						}
					}
				case "new":
					if _, ok := t.(*types.TypeParam); ok && !zero[n.(ast.Expr)] {
						return "allocates a " + t.String()
					}
				}
				return ""
			})
		}},
	{"GroupsLiveInTheCall", settledRecycled,
		"internal/kernel never allocates a Grouped (new, &Grouped{…}, or a function returning *Grouped): a worker's group accumulators live in the call's outcomes",
		allocs(in("kernel"), "kernel.Grouped")},
	{"BatchPlanInTheCall", settledAnswerOnly,
		"internal/kernel never allocates a batch (new, &batch{…}, or a function returning *batch): kernel.Shared's plan rides in the recycled exec.Call",
		allocs(in("kernel"), "kernel.batch")},
	{"OneJobChannel", settledAnswerOnly,
		"in internal/exec a channel is made only by Take, for a call's reused job (capacity 1), and by Batcher.Do, for a batch group: no fresh channel per call",
		func(a *arch) []string {
			return a.find(in("exec"), func(s site, n ast.Node, info *types.Info) string {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return ""
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
					return ""
				}
				if _, ok := info.Types[call].Type.Underlying().(*types.Chan); !ok || s.fn == "exec.Batcher.Do" ||
					s.fn == "exec.Take" && len(call.Args) == 2 && fmt.Sprint(info.Types[call.Args[1]].Value) == "1" {
					return ""
				}
				return "makes a channel"
			})
		}},
	{"NoFoldClosure", settledAnswerOnly,
		"no function declared in internal/engine or internal/storage returns a function taking the package's worker scratch, and neither package instantiates kernel.SharedFold: a backend's fold is a method bound through a pointer, never a closure",
		rows(func(a *arch) []string {
			var out []string
			for _, pkg := range []string{"engine", "storage"} {
				scratch := a.lookup(pkg + ".scratch")
				for _, obj := range a.infos["repro/internal/"+pkg].Defs {
					if fn, ok := obj.(*types.Func); ok {
						res := fn.Type().(*types.Signature).Results()
						for i := range res.Len() {
							if sig, ok := res.At(i).Type().Underlying().(*types.Signature); ok && mentions(sig.Params(), scratch) {
								out = append(out, a.at(fn.Pos(), fn.Name()+" returns a fold closure"))
							}
						}
					}
				}
			}
			return out
		}, callers("kernel.SharedFold", in("engine", "storage")))},
}

// site is where a node of non-test Go sits: the import path of its
// package and its enclosing top-level declaration ("pkg.Func",
// "pkg.Type.Method", "pkg.Type" in a type declaration, or "pkg" in
// another), pkg being the package's name.
type site struct {
	path, fn string
	pos      token.Pos
}

// arch is the repository as TestArchitecture's rows read it, with every
// use of an object the repository declares, indexed by the object.
type arch struct {
	*repo
	t    *testing.T
	uses map[types.Object][]site
}

// walk calls visit on every node of the non-test files of the packages
// in scope, with its site.
func (r *repo) walk(scope func(path string) bool, visit func(s site, n ast.Node, info *types.Info)) {
	for _, path := range r.paths() {
		if !scope(path) {
			continue
		}
		info, name := r.infos[path], r.pkgs[path].Name()
		inspect := func(fn string, root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				if n != nil {
					visit(site{path: path, fn: fn, pos: n.Pos()}, n, info)
				}
				return true
			})
		}
		for _, f := range r.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := name + "." + d.Name.Name
					if d.Recv != nil {
						fn = name + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					inspect(fn, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							inspect(name+"."+ts.Name.Name, spec)
						} else {
							inspect(name, spec)
						}
					}
				}
			}
		}
	}
}

// recvName returns the type name of a method's receiver expression.
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
			return types.ExprString(e)
		}
	}
}

// Scopes of TestArchitecture's rows, by import path.
var (
	everywhere = func(string) bool { return true }
	mainModule = func(path string) bool { return path != "repro/bench" && !strings.HasPrefix(path, "repro/bench/") }
)

// scoped records every package a scope names, for TestArchitecture to
// check that each exists: a scope over no package holds nothing.
var scoped []string

// in is the scope of the named packages: directories under internal/,
// or mdhf for the root package.
func in(pkgs ...string) func(string) bool {
	scoped = append(scoped, pkgs...)
	return func(path string) bool {
		for _, p := range pkgs {
			if path == importPath(p) {
				return true
			}
		}
		return false
	}
}

// not is every package outside the scope.
func not(scope func(string) bool) func(string) bool {
	return func(path string) bool { return !scope(path) }
}

func importPath(pkg string) string {
	if pkg == "mdhf" {
		return "repro"
	}
	return "repro/internal/" + pkg
}

// origin returns the generic object of an instantiated function, method
// or field.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// lookup returns the object named "pkg.Name" or "pkg.Type.Method" (or
// field), failing the row if there is none: a row over a deleted name
// holds nothing.
func (a *arch) lookup(key string) types.Object {
	a.t.Helper()
	parts := strings.Split(key, ".")
	if p := a.pkgs[importPath(parts[0])]; p != nil {
		obj := p.Scope().Lookup(parts[1])
		if obj != nil && len(parts) == 3 {
			obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, p, parts[2])
		}
		if obj != nil {
			return obj
		}
	}
	a.t.Errorf("%s declares nothing: the row holds nothing", key)
	return nil
}

// fields returns the fields of the named struct type (none for nil).
func fields(tn types.Object) []*types.Var {
	var out []*types.Var
	if tn != nil {
		st := tn.Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			out = append(out, st.Field(i))
		}
	}
	return out
}

// rows concatenates row bodies.
func rows(fs ...func(a *arch) []string) func(a *arch) []string {
	return func(a *arch) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f(a)...)
		}
		return out
	}
}

// callers is a row body: the uses of the object named key in the
// packages in scope from any function but the allowed ones ("pkg.Func",
// "pkg.Type.Method", or "pkg." for a whole package).
func callers(key string, scope func(string) bool, allowed ...string) func(a *arch) []string {
	return func(a *arch) []string {
		obj := a.lookup(key)
		if obj == nil {
			return nil
		}
		var out []string
		for _, s := range a.uses[origin(obj)] {
			ok := !scope(s.path)
			for _, fn := range allowed {
				ok = ok || s.fn == fn || strings.HasSuffix(fn, ".") && strings.HasPrefix(s.fn, fn)
			}
			if !ok {
				out = append(out, a.where(s, "uses "+key))
			}
		}
		return out
	}
}

// compressedUsers is a row body: the uses, in the packages in scope, of
// objects whose type mentions bitmap.Compressed, but in the allowed
// functions and types.
func compressedUsers(scope func(string) bool, allowed ...string) func(a *arch) []string {
	return func(a *arch) []string {
		c := a.lookup("bitmap.Compressed")
		return a.usesWhere(scope, func(s site, obj types.Object) bool {
			for _, fn := range allowed {
				if s.fn == fn {
					return false
				}
			}
			return mentions(obj.Type(), c)
		})
	}
}

// allocs is a row body: where the packages in scope allocate a value of
// the named type, by new(T), &T{…}, or a function returning *T.
func allocs(scope func(string) bool, key string) func(a *arch) []string {
	return func(a *arch) []string {
		tn := a.lookup(key)
		is := func(t types.Type) bool {
			n, ok := t.(*types.Named)
			return ok && n.Origin().Obj() == tn
		}
		return a.find(scope, func(_ site, n ast.Node, info *types.Info) string {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if _, lit := n.X.(*ast.CompositeLit); lit && n.Op == token.AND && is(info.Types[n.X].Type) {
					return "allocates a " + key
				}
			case *ast.FuncDecl:
				res := info.Defs[n.Name].Type().(*types.Signature).Results()
				for i := range res.Len() {
					if p, ok := res.At(i).Type().(*types.Pointer); ok && is(p.Elem()) {
						return "returns a new " + key
					}
				}
			}
			if t, name := builtinArg(n, info); name == "new" && is(t) {
				return "allocates a " + key
			}
			return ""
		})
	}
}

// builtinArg returns, for a call of a builtin with one argument, the
// builtin's name and the argument's type.
func builtinArg(n ast.Node, info *types.Info) (types.Type, string) {
	if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				return info.Types[call.Args[0]].Type, id.Name
			}
		}
	}
	return nil, ""
}

// find returns a violation at every node of the packages in scope that
// bad describes.
func (a *arch) find(scope func(string) bool, bad func(s site, n ast.Node, info *types.Info) string) []string {
	var out []string
	a.walk(scope, func(s site, n ast.Node, info *types.Info) {
		if msg := bad(s, n, info); msg != "" {
			out = append(out, a.where(s, msg))
		}
	})
	return out
}

// usesWhere returns the uses, in the packages in scope, of every object
// of the repository that pred holds for.
func (a *arch) usesWhere(scope func(string) bool, pred func(s site, obj types.Object) bool) []string {
	var out []string
	for obj, sites := range a.uses {
		for _, s := range sites {
			if scope(s.path) && pred(s, obj) {
				out = append(out, a.where(s, "uses "+obj.Name()))
			}
		}
	}
	sort.Strings(out)
	return out
}

// at places a message at a position.
func (a *arch) at(pos token.Pos, msg string) string {
	p := a.fset.Position(pos)
	return fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, msg)
}

// where places a message at a site.
func (a *arch) where(s site, msg string) string { return a.at(s.pos, "in "+s.fn+": "+msg) }

// mentions reports whether t refers to the named type tn: itself, or
// through pointers, slices, arrays, maps, channels, signatures, struct
// fields and type arguments, but not through another named type's
// underlying type.
func mentions(t types.Type, tn types.Object) bool {
	if tn == nil {
		return false
	}
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if t.Origin().Obj() == tn {
			return true
		}
		for i := range t.TypeArgs().Len() {
			if mentions(t.TypeArgs().At(i), tn) {
				return true
			}
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		if m, ok := t.(*types.Map); ok && mentions(m.Key(), tn) {
			return true
		}
		return mentions(t.Elem(), tn)
	case *types.Signature:
		return mentions(t.Params(), tn) || mentions(t.Results(), tn)
	case *types.Tuple:
		for i := range t.Len() {
			if mentions(t.At(i).Type(), tn) {
				return true
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if mentions(t.Field(i).Type(), tn) {
				return true
			}
		}
	}
	return false
}

// isFieldOf reports whether obj is a field of the named struct type.
func isFieldOf(obj, tn types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return false
	}
	for _, f := range fields(tn) {
		if f == v.Origin() {
			return true
		}
	}
	return false
}

// isMapReduce reports whether obj is one of internal/exec's Map* and
// Reduce* functions.
func isMapReduce(_ site, obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg().Path() == "repro/internal/exec" && (strings.HasPrefix(fn.Name(), "Map") || strings.HasPrefix(fn.Name(), "Reduce"))
}

// benchReach returns every Benchmark that reaches the simulator or the
// experiments: one declared in internal/experiments or internal/simpad,
// or one whose body, or a test function it calls by name, names an
// import of either or, in the root package, a root function that calls
// into either. Test files are parsed only.
func (a *arch) benchReach() []string {
	sim := func(path string) bool { return path == "repro/internal/experiments" || path == "repro/internal/simpad" }
	wraps := map[string]bool{} // root functions calling into either, by name
	a.walk(in("mdhf"), func(s site, n ast.Node, info *types.Info) {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && sim(fn.Pkg().Path()) {
				wraps[s.fn[strings.LastIndex(s.fn, ".")+1:]] = true
			}
		}
	})
	var out []string
	for path, files := range a.tests {
		decls := map[string]*ast.FuncDecl{}
		imports := map[*ast.FuncDecl]map[string]bool{} // a test function's file's import names of either package
		var benches []*ast.FuncDecl
		for _, f := range files {
			names := map[string]bool{}
			for _, imp := range f.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); sim(p) {
					name := p[strings.LastIndex(p, "/")+1:]
					if imp.Name != nil {
						name = imp.Name.Name
					}
					names[name] = true
				}
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					decls[fd.Name.Name], imports[fd] = fd, names
					if strings.HasPrefix(fd.Name.Name, "Benchmark") {
						benches = append(benches, fd)
					}
				}
			}
		}
		for _, b := range benches {
			seen, queue := map[*ast.FuncDecl]bool{b: true}, []*ast.FuncDecl{b}
			for len(queue) > 0 && !sim(path) {
				fd := queue[0]
				queue = queue[1:]
				var visit func(n ast.Node) bool
				visit = func(n ast.Node) bool {
					var name string
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && imports[fd][x.Name] {
							out = append(out, a.at(n.Pos(), b.Name.Name+" reaches "+types.ExprString(n)))
						}
						ast.Inspect(n.X, visit)
						name = n.Sel.Name
					case *ast.Ident:
						name = n.Name
					default:
						return true
					}
					if d := decls[name]; d != nil && !seen[d] {
						seen[d] = true
						queue = append(queue, d)
					} else if d == nil && path == "repro" && wraps[name] {
						out = append(out, a.at(n.Pos(), b.Name.Name+" reaches "+name))
					}
					return false
				}
				ast.Inspect(fd, visit)
			}
			if sim(path) {
				out = append(out, a.at(b.Pos(), b.Name.Name+" is declared beside the simulator"))
			}
		}
	}
	sort.Strings(out)
	return out
}
