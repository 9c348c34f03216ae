package pol_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow names every func and method that stays although only tests
// call it, each with the reason it stays. An entry that non-test code comes
// to reference, or that names nothing, fails TestSurfaceIsCalled: the list
// shrinks when the code does.
var surfaceAllow = map[string]string{
	// Inspection seams: other packages' tests read them to check other behaviour.
	"fault.IsInjected":        "ingest and replica tests tell an injected fault from a real I/O error",
	"fault.Registry.Disable":  "chaos tests clear one failpoint mid-run to let recovery proceed",
	"fault.New":               "ingest and cluster tests arm a private registry so failpoints cannot leak between tests",
	"sim.Simulator.Gazetteer": "routing, anomaly and render tests resolve a voyage's port ids against the gazetteer the fleet was planned on",
	"obs.Registry.Expose":     "metrics tests read the exposition text without an HTTP server",
	"obs.Watchdog.Anomalies":  "watchdog and api tests read the alert list the /v1/ops/anomalies handler serves",
	"hexgrid.GridDistance":    "grid-disk, ring and routing tests check neighbourhoods against it",
	"stats.TDigest.Centroids": "codec and merge tests compare digests centroid by centroid",
	// The paper reproduction with a DESIGN §3 row.
	"baseline.DBSCAN":      "DESIGN §3 '§2 baseline' row: the density-skew failure mode of [20], reproduced in baseline's tests",
	"baseline.NumClusters": "reads DBSCAN's labelling in that reproduction",
}

// surfaceExempt are method names the standard library calls through an
// interface (fmt.Stringer, error, sort.Interface, heap.Interface,
// http.Handler, io, flag.Value, encoding), so no selector in this
// repository names them.
var surfaceExempt = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "Flush": true,
	"Set":         true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

type surfaceRef struct{ pkg, name string } // pkg "" = a method (or field) selector

type surfaceDecl struct {
	key    string // pkg.Func or pkg.Type.Method, as surfaceAllow spells it
	pos    string
	method bool
	name   string
	dir    string
	refs   []surfaceRef
}

// TestSurfaceIsCalled is the surface census made executable: every func and
// method declared in non-test Go outside bench/ must be reachable, through
// non-test code (bench/*.go included — the benchmark binds to the program
// through bench/adapter.go), from a main, an init, a package-level
// initialiser, a standard-library interface method, or surfaceAllow.
// Resolution is syntactic (go/parser object resolution, no type checker):
// pkg.F resolves through the file's imports, a bare F within its package,
// and x.M marks every method named M — so it can miss a dead method whose
// name a live one shares, and never reports a live one.
func TestSurfaceIsCalled(t *testing.T) {
	const module = "github.com/patternsoflife/pol/"
	fset := token.NewFileSet()
	var decls []*surfaceDecl
	var roots []surfaceRef

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// internal/testutil is test code that other packages' tests
			// import, so it is read as the _test.go files are: not at all.
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata" || n == "testutil") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		inBench := dir == "bench"
		imports := map[string]string{} // local name → repository directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, module) {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(p, module)
		}
		collect := func(n ast.Node) []surfaceRef {
			var refs []surfaceRef
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil {
						if target, ok := imports[id.Name]; ok {
							refs = append(refs, surfaceRef{target, x.Sel.Name})
							return false
						}
					}
					refs = append(refs, surfaceRef{"", x.Sel.Name})
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					// A bare identifier that is not a resolved local names a
					// func of its own package.
					if x.Obj == nil || x.Obj.Kind == ast.Fun {
						refs = append(refs, surfaceRef{dir, x.Name})
					}
				}
				return true
			}
			ast.Inspect(n, visit)
			return refs
		}
		pkg := f.Name.Name
		if pkg == "main" {
			pkg = dir
		}
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			if !isFunc || inBench {
				roots = append(roots, collect(d)...)
				continue
			}
			sd := &surfaceDecl{name: fd.Name.Name, dir: dir, pos: fset.Position(fd.Pos()).String()}
			sd.key = pkg + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				sd.method = true
				sd.key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				sd.refs = collect(fd.Recv)
			}
			sd.refs = append(sd.refs, collect(fd.Type)...)
			if fd.Body != nil {
				sd.refs = append(sd.refs, collect(fd.Body)...)
			}
			decls = append(decls, sd)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	funcs := map[surfaceRef][]*surfaceDecl{} // a slice: build-tagged files declare one name twice
	methods := map[string][]*surfaceDecl{}
	byKey := map[string]*surfaceDecl{}
	for _, d := range decls {
		byKey[d.key] = d
		if d.method {
			methods[d.name] = append(methods[d.name], d)
		} else {
			r := surfaceRef{d.dir, d.name}
			funcs[r] = append(funcs[r], d)
		}
	}

	reached := map[*surfaceDecl]bool{}
	var work []*surfaceDecl
	mark := func(d *surfaceDecl) {
		if d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	follow := func(refs []surfaceRef) {
		for _, r := range refs {
			targets := methods[r.name]
			if r.pkg != "" {
				targets = funcs[r]
			}
			for _, d := range targets {
				mark(d)
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			follow(d.refs)
		}
	}
	follow(roots)
	for _, d := range decls {
		if !d.method && (d.name == "main" || d.name == "init") || d.method && surfaceExempt[d.name] {
			mark(d)
		}
	}
	drain()

	// What the code reaches without the allow-list is known now; the
	// allow-list is followed afterwards so a stale entry can be told apart.
	for key, reason := range surfaceAllow {
		d := byKey[key]
		switch {
		case reason == "":
			t.Errorf("surfaceAllow[%q] carries no reason", key)
		case d == nil:
			t.Errorf("surfaceAllow[%q] names no declaration; delete the entry", key)
		case reached[d]:
			t.Errorf("surfaceAllow[%q] is referenced by non-test code now; delete the entry", key)
		}
	}
	for key := range surfaceAllow {
		mark(byKey[key])
	}
	drain()

	var dead []string
	for _, d := range decls {
		if !reached[d] {
			dead = append(dead, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s is reached by no non-test code: delete it, or name it in surfaceAllow with its reason", s)
	}
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestDesignModuleTableMatchesTree holds DESIGN.md §2 to the tree: every
// directory under internal/ and cmd/ has a row and every row has a directory.
func TestDesignModuleTableMatchesTree(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "\n## 2. ")
	end := strings.Index(text, "\n## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §2 followed by §3")
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:internal|cmd)/[a-z0-9_]+)` \\|").FindAllStringSubmatch(text[start:end], -1) {
		if rows[m[1]] {
			t.Errorf("DESIGN.md §2 lists %s twice", m[1])
		}
		rows[m[1]] = true
	}
	for _, top := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(top)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := top + "/" + e.Name()
			if !rows[dir] {
				t.Errorf("%s has no row in DESIGN.md §2's module table", dir)
			}
			delete(rows, dir)
		}
	}
	for dir := range rows {
		t.Errorf("DESIGN.md §2 lists %s, which does not exist", dir)
	}
}
