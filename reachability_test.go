package sap

// The reachability guard keeps code that only tests reach out of internal/.
// It parses every non-test Go file of the module and of bench/, walks the
// top-level declarations reachable from production roots to a fixpoint, and
// fails on each declaration under internal/ that the walk never reaches:
//
//	go test -run TestInternalReachable .
//
// Roots are main of every program, init of every package, every exported
// declaration of this package, package-level vars whose initializer calls
// module code, and reachAllow. References are followed syntactically:
// pkg.Name through the file's imports, a bare identifier within its own
// package, and a method once its receiver type is reached and its name is
// used as a selector or an interface method in reached code (or is a
// standard-library interface method). Without type information a name
// collision can only keep a declaration alive, so the guard never flags code
// a program reaches.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names declarations kept although no production path reaches
// them, each with its reason. A key is a directory relative to the module
// root (the whole package), or a directory, a dot and a declaration name
// (Type.Method for a method); a trailing * matches a name prefix.
var reachAllow = map[string]string{
	"internal/cluster/faultnet": "fault-injection proxy and process harness the cluster durability tests drive",

	"internal/transport.FaultConn*":   "lossy Conn fixture, with its methods, for the protocol fault tests",
	"internal/transport.NewFaultConn": "constructor of the FaultConn fixture",
	"internal/transport.PeekSender":   "lets faultnet hooks read a frame's sender without decrypting it",
	"internal/protocol.Kind*":         "frame kinds exported for faultnet hooks that drop or delay by kind",

	"internal/protocol.AuditLog.VerifyInvariants": "the session safety checker the protocol tests run over audit logs",

	"internal/stat.CovarianceMatrix":      "batch reference TestStreamEquivalentToBatch compares the stream against",
	"internal/perturb.Perturbation.Equal": "assertion helper for perturbation round-trip tests",
	"internal/matrix.Dense.Equal":         "exact-equality assertion helper",
	"internal/matrix.Dense.Sub":           "residual computation in assertions",
	"internal/matrix.Dense.MaxAbs":        "residual magnitude in assertions",
	"internal/matrix.Dense.Augment":       "joins stream chunks in the stream equivalence tests",
	"internal/matrix.RandomUniform":       "uniform test data generator",
	"internal/dataset.Dataset.Column":     "per-feature column read in dataset and partition tests",
	"internal/stat.Histogram.Total":       "observation count the Figure 2 test checks",

	"internal/protocol.ServiceClient.Classify": "single-record accessor tests use; the facade classifies in batches",
	"internal/protocol.ServiceClient.Routes":   "routing-table read the cluster tests assert on",
	"internal/protocol.ServiceClient.RoutesAt": "per-node routing-table read the cluster tests assert on",
	"internal/protocol.ServiceClient.Group":    "accessor tests use to check client binding",
	"internal/protocol.ServiceClient.View":     "accessor tests use to check client binding",
	"internal/protocol.MiningService.Groups":   "accessor tests use to list served groups",
	"internal/protocol.MiningService.Ingested": "accessor tests use to wait for ingest",
	"internal/cluster.Client.Classify":         "single-record accessor the cluster tests use",
	"internal/cluster.Node.Service":            "accessor tests use to reach a node's service",
	"internal/cluster.Node.Epoch":              "accessor tests use to observe failover",
	"internal/cluster.Table.Epoch":             "accessor the table tests assert on",
	"internal/cluster.Table.Groups":            "accessor the table tests assert on",
}

// reachStdMethods are methods that standard-library interfaces call (fmt,
// error, io, net/http, sort and container/heap, encoding), so a reached type
// keeps them without a selector in module code.
var reachStdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "GobEncode": true, "GobDecode": true,
}

type reachPkg struct {
	dir   string // relative to the module root
	name  string
	decls map[string][]*reachDecl // by id
}

type reachFile struct {
	pkg     *reachPkg
	ast     *ast.File
	imports map[string]string // local name → import path
}

type reachDecl struct {
	file *reachFile
	recv string // receiver type name; "" unless a method
	name string
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	pos  token.Pos
}

// id is the declaration's name within its package: Name, or Recv.Name.
func (d *reachDecl) id() string {
	if d.recv != "" {
		return d.recv + "." + d.name
	}
	return d.name
}

// reachGraph is the parsed module plus what the walk has reached so far.
type reachGraph struct {
	fset    *token.FileSet
	pkgs    map[string]*reachPkg // by import path
	decls   []*reachDecl
	reached map[*reachDecl]bool
	used    map[string]bool // selector and interface method names in reached code
	work    []*reachDecl
}

func TestInternalReachable(t *testing.T) {
	g := loadReachGraph(t, ".")
	for _, d := range g.roots(t) {
		g.mark(d)
	}
	g.walk()

	var unreached []string
	for _, d := range g.decls {
		if !g.reached[d] && strings.HasPrefix(d.file.pkg.dir, "internal/") {
			p := g.fset.Position(d.pos)
			unreached = append(unreached, fmt.Sprintf("%s:%d %s", p.Filename, p.Line, d.id()))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("unreached from production code: %s", u)
	}
	if len(unreached) > 0 {
		t.Log("delete the code (and the tests that pin only it), or add it to reachAllow with the reason it stays")
	}
}

// loadReachGraph parses the non-test Go files under root, skipping testdata
// and hidden or underscore-prefixed directories (build output lives there).
// The root directory is module repro, so dir d holds package repro/d.
func loadReachGraph(t *testing.T, root string) *reachGraph {
	t.Helper()
	g := &reachGraph{
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*reachPkg),
		reached: make(map[*reachDecl]bool),
		used:    make(map[string]bool),
	}
	var files []*reachFile
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(g.fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		importPath := "repro"
		if dir != "." {
			importPath += "/" + dir
		}
		pkg := g.pkgs[importPath]
		if pkg == nil {
			pkg = &reachPkg{dir: dir, name: f.Name.Name, decls: make(map[string][]*reachDecl)}
			g.pkgs[importPath] = pkg
		}
		rf := &reachFile{pkg: pkg, ast: f, imports: make(map[string]string)}
		files = append(files, rf)
		for _, decl := range f.Decls {
			g.addDecls(rf, decl)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Imports resolve once every module package's name is known.
	for _, rf := range files {
		for _, spec := range rf.ast.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			switch {
			case spec.Name != nil:
				rf.imports[spec.Name.Name] = path
			case g.pkgs[path] != nil:
				rf.imports[g.pkgs[path].name] = path
			default:
				rf.imports[path[strings.LastIndex(path, "/")+1:]] = path
			}
		}
	}
	return g
}

func (g *reachGraph) addDecls(rf *reachFile, decl ast.Decl) {
	add := func(d *reachDecl) {
		rf.pkg.decls[d.id()] = append(rf.pkg.decls[d.id()], d)
		g.decls = append(g.decls, d)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		add(&reachDecl{file: rf, recv: recvName(d.Recv), name: d.Name.Name, node: d, pos: d.Pos()})
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(&reachDecl{file: rf, name: s.Name.Name, node: s, pos: s.Pos()})
			case *ast.ValueSpec:
				for _, n := range s.Names {
					// var _ I = (*T)(nil) asserts; nothing can refer to it.
					if n.Name != "_" {
						add(&reachDecl{file: rf, name: n.Name, node: s, pos: n.Pos()})
					}
				}
			}
		}
	}
}

// recvName returns the receiver's base type name, or "" for a function.
func recvName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.ParenExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// roots returns the declarations production code starts from: main, every
// package's init (it runs on import), the root package's exported API, vars
// whose initializer runs module code, and reachAllow. It fails on an
// allowlist entry without a reason or without a declaration to match.
func (g *reachGraph) roots(t *testing.T) []*reachDecl {
	t.Helper()
	var roots []*reachDecl
	matched := make(map[string]bool)
	for _, d := range g.decls {
		pkg := d.file.pkg
		root := d.recv == "" && d.name == "init" ||
			pkg.name == "main" && d.recv == "" && d.name == "main" ||
			pkg.dir == "." && ast.IsExported(d.name) && (d.recv == "" || ast.IsExported(d.recv)) ||
			g.initCallsModule(d)
		for entry := range reachAllow {
			if reachAllowMatch(entry, d) {
				matched[entry] = true
				root = true
			}
		}
		if root {
			roots = append(roots, d)
		}
	}
	for entry, reason := range reachAllow {
		if reason == "" {
			t.Errorf("reachAllow entry %q carries no reason", entry)
		}
		if !matched[entry] {
			t.Errorf("reachAllow entry %q names no declaration", entry)
		}
	}
	return roots
}

func reachAllowMatch(entry string, d *reachDecl) bool {
	if entry == d.file.pkg.dir {
		return true
	}
	key := d.file.pkg.dir + "." + d.id()
	if prefix, ok := strings.CutSuffix(entry, "*"); ok {
		return strings.HasPrefix(key, prefix)
	}
	return key == entry
}

// initCallsModule reports whether d is a package-level var whose initializer
// calls something other than a standard-library function, so initializing
// its package may run module code.
func (g *reachGraph) initCallsModule(d *reachDecl) bool {
	spec, ok := d.node.(*ast.ValueSpec)
	if !ok {
		return false
	}
	calls := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return !calls
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
					if path, ok := d.file.imports[x.Name]; ok && g.pkgs[path] == nil {
						return true // a standard-library call; its arguments may still call
					}
				}
			}
			calls = true
			return false
		})
	}
	return calls
}

func (g *reachGraph) mark(d *reachDecl) {
	if !g.reached[d] {
		g.reached[d] = true
		g.work = append(g.work, d)
	}
}

// walk follows references from the marked declarations until nothing new is
// reached, including methods whose receiver type and name are both reached.
func (g *reachGraph) walk() {
	for {
		for len(g.work) > 0 {
			d := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			g.visit(d)
		}
		for _, d := range g.decls {
			if d.recv == "" || g.reached[d] || !(g.used[d.name] || reachStdMethods[d.name]) {
				continue
			}
			for _, typ := range d.file.pkg.decls[d.recv] {
				if g.reached[typ] {
					g.mark(d)
					break
				}
			}
		}
		if len(g.work) == 0 {
			return
		}
	}
}

// visit marks every declaration d's source refers to. A method's own name
// is skipped: it declares, and would otherwise match a same-named function.
func (g *reachGraph) visit(d *reachDecl) {
	fn, ok := d.node.(*ast.FuncDecl)
	if !ok {
		g.refs(d.file, d.node)
		return
	}
	if fn.Recv != nil {
		g.refs(d.file, fn.Recv)
	}
	g.refs(d.file, fn.Type)
	if fn.Body != nil {
		g.refs(d.file, fn.Body)
	}
}

func (g *reachGraph) refs(f *reachFile, node ast.Node) {
	var inspect func(ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			for _, d := range f.pkg.decls[x.Name] {
				g.mark(d)
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil {
				if path, ok := f.imports[id.Name]; ok {
					if pkg := g.pkgs[path]; pkg != nil {
						for _, d := range pkg.decls[x.Sel.Name] {
							g.mark(d)
						}
					}
					return false
				}
			}
			g.used[x.Sel.Name] = true
			ast.Inspect(x.X, inspect)
			return false
		case *ast.Field:
			// Field and parameter names declare; only the type refers.
			ast.Inspect(x.Type, inspect)
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					g.used[name.Name] = true
				}
			}
		}
		return true
	}
	ast.Inspect(node, inspect)
}
