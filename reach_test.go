package pulse_test

// Reachability guard: every function and method declared under internal/
// must be referenced by non-test code — the main module, its commands and
// examples, or the bench/ harness. Code that only tests reach is either a
// test oracle (it belongs in a _test.go file of its package) or dead, and
// both keep growing unless something fails when they appear. The scan uses
// go/parser and go/ast alone, so it is conservative rather than exact:
//   - a package-level function is reached by an unqualified identifier of
//     its name in its own package, or by pkg.Name through an import of its
//     package;
//   - a method is reached by any selector .Name anywhere, whatever the
//     receiver, which covers interface dispatch and embedding;
//   - a reference inside the symbol's own declaration (recursion) does not
//     count;
//   - methods the standard library calls implicitly count as reached.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist names the symbols, relative to the module path, that only
// tests reach but that stay in non-test code, each with its reason. Keep it
// to at most ten entries.
var reachAllowlist = map[string]string{
	"internal/provenance.Recorder.Rings":        "oracle of the scenario harness in internal/core, a package other than its own",
	"internal/runtime.NewManualClock":           "test clock of the runtime's tests and of the scenario harness in internal/core; it goes with the Clock interface once bench/ stops setting runtime.Config.Clock",
	"internal/tournament.Arena.LedgersReleased": "memory-retention oracle of internal/attribution's retire and allocation tests, which drive the arena through the accountant",
}

// implicitMethods are called by the standard library through an interface
// (fmt, errors, encoding, net/http, sort, io), not by name in this module.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"ServeHTTP":   true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

func TestReachability(t *testing.T) {
	if len(reachAllowlist) > 10 {
		t.Errorf("allowlist has %d entries, want at most 10", len(reachAllowlist))
	}
	unreached, err := findUnreached(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range reachFailures(unreached, reachAllowlist) {
		t.Error(msg)
	}
}

// reachFailures lists each unreached symbol the allowlist does not name,
// and each allowlist entry that names no unreached symbol.
func reachFailures(unreached []string, allow map[string]string) []string {
	var out []string
	found := map[string]bool{}
	for _, sym := range unreached {
		found[sym] = true
		if _, ok := allow[sym]; !ok {
			out = append(out, sym+": no non-test code references it; delete it, move it into a _test.go file, or allowlist it with a reason")
		}
	}
	for sym := range allow {
		if !found[sym] {
			out = append(out, "allowlist entry "+sym+" is stale: it is reached or gone")
		}
	}
	sort.Strings(out)
	return out
}

// TestReachabilityAnalysis runs the guard over small synthetic modules.
func TestReachabilityAnalysis(t *testing.T) {
	const gomod = "module example.com/m\n\ngo 1.22\n"
	const use = "package main\nimport \"example.com/m/internal/a\"\nfunc main() { a.Used() }\n"
	cases := []struct {
		name  string
		files map[string]string
		allow map[string]string
		want  []string // symbols reachFailures reports
	}{{
		name: "unused export",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() {}\nfunc Unused() {}\n",
			"main.go":         use,
		},
		want: []string{"internal/a.Unused"},
	}, {
		name: "used only from a test file",
		files: map[string]string{
			"internal/a/a.go":      "package a\nfunc Used() {}\nfunc Helper() int { return 1 }\n",
			"internal/a/a_test.go": "package a\nvar _ = Helper()\n",
			"main.go":              use,
			"main_test.go":         "package main\nimport \"example.com/m/internal/a\"\nvar _ = a.Helper\n",
		},
		want: []string{"internal/a.Helper"},
	}, {
		name: "used only from bench",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() {}\n",
			"bench/go.mod":    "module example.com/m/bench\n",
			"bench/b/main.go": "package main\nimport pa \"example.com/m/internal/a\"\nfunc main() { pa.Used() }\n",
		},
	}, {
		name: "used unqualified in its own package",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() { helper() }\nfunc helper() {}\n",
			"main.go":         use,
		},
	}, {
		name: "method through an interface",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype Stepper interface{ Step() }\ntype T struct{}\nfunc (T) Step() {}\nfunc (T) Idle() {}\nfunc Used() { var s Stepper = T{}; s.Step() }\n",
			"main.go":         use,
		},
		want: []string{"internal/a.T.Idle"},
	}, {
		name: "recursion is not a reference",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() {}\nfunc Fact(n int) int { if n == 0 { return 1 }; return n * Fact(n-1) }\n",
			"main.go":         use,
		},
		want: []string{"internal/a.Fact"},
	}, {
		name: "implicit method",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype T int\nfunc (T) String() string { return \"t\" }\nfunc Used() {}\n",
			"main.go":         use,
		},
	}, {
		name: "same name in another package",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() {}\n",
			"internal/b/b.go": "package b\nfunc Used() {}\n",
			"main.go":         use,
		},
		want: []string{"internal/b.Used"},
	}, {
		name: "allowlisted name",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() {}\nfunc Oracle() {}\n",
			"main.go":         use,
		},
		allow: map[string]string{"internal/a.Oracle": "a cross-package test oracle"},
	}, {
		name: "stale allowlist entry",
		files: map[string]string{
			"internal/a/a.go": "package a\nfunc Used() {}\n",
			"main.go":         use,
		},
		allow: map[string]string{"internal/a.Used": "reached after all"},
		want:  []string{"internal/a.Used"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			files := map[string]string{"go.mod": gomod}
			for name, src := range tc.files {
				files[name] = src
			}
			for name, src := range files {
				p := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			unreached, err := findUnreached(root)
			if err != nil {
				t.Fatal(err)
			}
			got := reachFailures(unreached, tc.allow)
			if len(got) != len(tc.want) {
				t.Fatalf("failures = %q, want one naming each of %q", got, tc.want)
			}
			for i, sym := range tc.want {
				if !strings.Contains(got[i], sym+":") && !strings.Contains(got[i], " "+sym+" ") {
					t.Errorf("failure %q does not name %s", got[i], sym)
				}
			}
		})
	}
}

// reachDecl is one function or method declared under internal/.
type reachDecl struct {
	key      string // module-relative: internal/pkg.Func or internal/pkg.Type.Method
	pkg      string // import path
	name     string
	method   bool
	pos, end token.Pos // positions are unique across the scan's FileSet
}

// findUnreached parses every non-test .go file under root (the module whose
// go.mod sits there, nested modules such as bench/ included) and returns the
// sorted module-relative names of the internal/ functions and methods that
// no non-test code references.
func findUnreached(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []reachDecl
	funcRefs := map[string][]token.Pos{}   // import path + "." + name
	methodRefs := map[string][]token.Pos{} // name
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := modPath
		if rel != "." {
			pkg = path.Join(modPath, filepath.ToSlash(rel))
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		internal := strings.HasPrefix(pkg+"/", modPath+"/internal/")
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok || !internal {
				continue
			}
			d := reachDecl{pkg: pkg, name: fd.Name.Name, pos: fd.Pos(), end: fd.End()}
			d.key = strings.TrimPrefix(pkg, modPath+"/") + "." + d.name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				d.method = true
				d.key = strings.TrimPrefix(pkg, modPath+"/") + "." + recvName(fd.Recv.List[0].Type) + "." + d.name
			}
			decls = append(decls, d)
		}
		v := refVisitor{pkg, imports, funcRefs, methodRefs}
		for _, dl := range f.Decls {
			if fd, ok := dl.(*ast.FuncDecl); ok {
				// Skip fd.Name: a declaration is not a reference to itself.
				if fd.Recv != nil {
					ast.Walk(v, fd.Recv)
				}
				ast.Walk(v, fd.Type)
				if fd.Body != nil {
					ast.Walk(v, fd.Body)
				}
				continue
			}
			ast.Walk(v, dl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if d.name == "init" || d.name == "main" || d.name == "_" || (d.method && implicitMethods[d.name]) {
			continue
		}
		refs := funcRefs[d.pkg+"."+d.name]
		if d.method {
			refs = methodRefs[d.name]
		}
		reached := false
		for _, r := range refs {
			if r < d.pos || r >= d.end {
				reached = true
				break
			}
		}
		if !reached {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// refVisitor records, for one file, every identifier that may name a
// function (unqualified in its own package, or through an import) and every
// selector that may name a method.
type refVisitor struct {
	pkg        string
	imports    map[string]string
	funcRefs   map[string][]token.Pos
	methodRefs map[string][]token.Pos
}

func (v refVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if ip, ok := v.imports[x.Name]; ok {
				v.funcRefs[ip+"."+n.Sel.Name] = append(v.funcRefs[ip+"."+n.Sel.Name], n.Sel.Pos())
				return nil
			}
		}
		v.methodRefs[n.Sel.Name] = append(v.methodRefs[n.Sel.Name], n.Sel.Pos())
		ast.Walk(v, n.X)
		return nil
	case *ast.Ident:
		v.funcRefs[v.pkg+"."+n.Name] = append(v.funcRefs[v.pkg+"."+n.Name], n.Pos())
	}
	return v
}

// recvName returns the type name of a method receiver: T, *T, T[P] or *T[P].
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
			return "?"
		}
	}
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
