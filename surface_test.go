package tcd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow names the exported identifiers under internal/ that may
// have no caller in non-test Go. Each entry needs a caller outside
// non-test Go, named in its reason. A key with no dot is a method name
// on any receiver; any other key is pkg.Name or pkg.Type.Method.
var surfaceAllow = map[string]string{
	"MarshalJSON":           "encoding/json calls it",
	"UnmarshalJSON":         "encoding/json calls it",
	"workload.WriteTrace":   "benchmark/benchmark_test.go writes its trace fixture with it",
	"host.Manager.AdjustRx": "TestInvariantCheckerCatchesLeaks in internal/exp forges the receive ledger through it",
	"core.TonIB":            "the paper's Eqn (4); TestTonIB shows that MaxTonIB = Tc bounds it",
}

// goSource is one parsed Go file of the tree the surface scan reads.
type goSource struct {
	pkg  string // import path
	test bool   // a _test.go file: its references do not count
	file *ast.File
}

// TestNoTestOnlySurface fails when an exported identifier under internal/
// has no caller in the repository's non-test Go (cmd/, examples/ and
// benchmark/ included) and no entry in surfaceAllow. Such an identifier is
// production code that only tests run: delete it, or move the tests onto
// the path production takes.
func TestNoTestOnlySurface(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	fset := token.NewFileSet()
	var files []goSource
	err = filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		files = append(files, goSource{pkg: pkg, test: strings.HasSuffix(name, "_test.go"), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range deadSurface(files, surfaceAllow) {
		t.Errorf("%s is exported under internal/ but nothing outside tests uses it", id)
	}
}

// deadSurface reports each exported declaration in an internal/ package
// that no non-test file references and allow does not name. A
// package-level name counts as referenced through its import path
// (alias.Name) in other packages and as a bare identifier in its own. A
// method counts as referenced when any selector not on a package has its
// name, so a method called through an interface is never reported.
// Receiver types do not count as references to their type.
func deadSurface(files []goSource, allow map[string]string) []string {
	pkgUse := map[string]map[string]bool{} // import path -> names referenced
	methodUse := map[string]bool{}
	use := func(pkg, name string) {
		if pkgUse[pkg] == nil {
			pkgUse[pkg] = map[string]bool{}
		}
		pkgUse[pkg][name] = true
	}
	pkgName := map[string]string{}
	for _, f := range files {
		if !f.test {
			pkgName[f.pkg] = f.file.Name.Name
		}
	}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := path.Base(p)
			if n, ok := pkgName[p]; ok {
				name = n
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		skip := map[*ast.Ident]bool{} // declared names and receiver types
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				skip[d.Name] = true
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						skip[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							skip[n] = true
						}
					}
				}
			}
		}
		locals := map[string]bool{} // names the file binds to values: fields, parameters, variables
		ast.Inspect(f.file, func(n ast.Node) bool {
			var ids []ast.Expr
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					ids = append(ids, id)
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					ids = append(ids, id)
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					ids = n.Lhs
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					ids = []ast.Expr{n.Key, n.Value}
				}
			}
			for _, e := range ids {
				if id, ok := e.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
			return true
		})
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// A name the file also declares (host.go's local obs) may
				// be a value there, so its selectors count for methods too.
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						use(p, n.Sel.Name)
						if !locals[x.Name] {
							return false
						}
					}
				}
				methodUse[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !skip[n] {
					use(f.pkg, n.Name)
				}
			}
			return true
		}
		ast.Inspect(f.file, visit)
	}

	allowed := func(key, method string) bool {
		_, ok := allow[key]
		if !ok && method != "" {
			_, ok = allow[method]
		}
		return ok
	}
	var dead []string
	for _, f := range files {
		if f.test || !strings.Contains("/"+f.pkg+"/", "/internal/") {
			continue
		}
		pkg := f.file.Name.Name
		report := func(key, method string, used bool) {
			if !used && !allowed(key, method) {
				dead = append(dead, key)
			}
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					report(pkg+"."+d.Name.Name, "", pkgUse[f.pkg][d.Name.Name])
					continue
				}
				report(pkg+"."+recvType(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name.Name, methodUse[d.Name.Name])
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						if n.IsExported() {
							report(pkg+"."+n.Name, "", pkgUse[f.pkg][n.Name])
						}
					}
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// recvType is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
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
			return "?"
		}
	}
}

// TestDeadSurfaceReports holds the scan to a small tree: a checker that
// cannot fail proves nothing.
func TestDeadSurfaceReports(t *testing.T) {
	srcs := []struct{ pkg, name, src string }{
		{"m/internal/a", "a.go", `package a

type T struct{}

func Orphan() {}

func (T) TestOnly() {}

func (T) ViaInterface() {}

func (T) ViaShadow() {}

func (T) MarshalJSON() ([]byte, error) { return nil, nil }

func New() T { return T{} }
`},
		{"m/internal/a", "a_test.go", `package a

func use() { New().TestOnly(); Orphan() }
`},
		{"m/cmd/b", "b.go", `package main

import "m/internal/a"

type viaInterface interface{ ViaInterface() }

func main() {
	var v viaInterface = a.New()
	v.ViaInterface()
	a := a.New()
	a.ViaShadow()
}
`},
	}
	fset := token.NewFileSet()
	var files []goSource
	for _, s := range srcs {
		f, err := parser.ParseFile(fset, s.name, s.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goSource{pkg: s.pkg, test: strings.HasSuffix(s.name, "_test.go"), file: f})
	}
	got := strings.Join(deadSurface(files, map[string]string{"MarshalJSON": "encoding/json calls it"}), " ")
	if want := "a.Orphan a.T.TestOnly"; got != want {
		t.Fatalf("deadSurface = %q, want %q", got, want)
	}
}
