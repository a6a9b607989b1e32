package pulse_test

// Reachability guard: every function and method declared under internal/
// must be referenced by non-test code — the main module, its commands and
// examples, or the bench/ harness. Code that only tests reach is either a
// test oracle (it belongs in a _test.go file of its package) or dead, and
// both keep growing unless something fails when they appear. The scan
// type-checks every non-test package from source with go/parser, go/build
// and go/types alone (the standard library's declarations included, its
// function bodies skipped), so a reference is what the compiler resolves:
//   - a function or a concrete method is reached by an identifier or
//     selector that resolves to it — a call, a method value or expression,
//     or a method promoted through embedding;
//   - a call through an interface resolves to no one declaration, so it
//     reaches every method of that name, whatever the receiver;
//   - a reference inside the symbol's own declaration (recursion) does not
//     count;
//   - methods the standard library calls implicitly count as reached.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the symbols, relative to the module path, that only
// tests reach but that stay in non-test code, each with its reason. Keep it
// to at most ten entries.
var reachAllowlist = map[string]string{
	"internal/alert.Subscription.C":             "the scenario harness in internal/core reads its /stream tap through it; the broadcaster's own ServeHTTP reads the channel field",
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
		name: "same method name on another type",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype T struct{}\nfunc (T) Idle() {}\ntype U struct{}\nfunc (U) Idle() {}\nfunc Used() { U{}.Idle() }\n",
			"main.go":         use,
		},
		want: []string{"internal/a.T.Idle"},
	}, {
		name: "method promoted through embedding",
		files: map[string]string{
			"internal/a/a.go": "package a\ntype B struct{}\nfunc (*B) Reset() {}\ntype A struct{ B }\nfunc Used() { var a A; a.Reset() }\n",
			"main.go":         use,
		},
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
	name     string
	method   bool
	pos, end token.Pos // positions are unique across the scan's FileSet
}

// findUnreached type-checks every non-test package under root (the module
// whose go.mod sits there, nested modules such as bench/ included) and
// returns the sorted module-relative names of the internal/ functions and
// methods that no non-test code references.
func findUnreached(root string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &reachLoader{fset: token.NewFileSet(), ctx: build.Default, dirs: map[string]string{}, pkgs: map[string]*types.Package{}}
	// The pure-Go standard library: type-checking needs no C toolchain.
	l.ctx.CgoEnabled = false
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		l.dirs[path.Join(modPath, filepath.ToSlash(rel))] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		var noGo *build.NoGoError
		if _, err := l.Import(ip); err != nil && !errors.As(err, &noGo) {
			return nil, err
		}
	}

	var decls []reachDecl
	refs := map[string][]token.Pos{}      // by funcKey: concrete functions and methods
	ifaceRefs := map[string][]token.Pos{} // by method name: calls through an interface
	for _, p := range l.mods {
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				if key, iface := funcKey(f); iface {
					ifaceRefs[f.Name()] = append(ifaceRefs[f.Name()], id.Pos())
				} else if key != "" {
					refs[key] = append(refs[key], id.Pos())
				}
			}
		}
		if !strings.HasPrefix(p.path+"/", modPath+"/internal/") {
			continue
		}
		for _, file := range p.files {
			for _, dl := range file.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				f, ok := p.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key, _ := funcKey(f)
				decls = append(decls, reachDecl{
					key: strings.TrimPrefix(key, modPath+"/"), name: f.Name(), method: fd.Recv != nil,
					pos: fd.Pos(), end: fd.End(),
				})
			}
		}
	}
	var out []string
	for _, d := range decls {
		if d.name == "init" || d.name == "main" || d.name == "_" || (d.method && implicitMethods[d.name]) {
			continue
		}
		// A reference inside the declaration itself (recursion) does not
		// count.
		outside := func(ps []token.Pos) bool {
			for _, r := range ps {
				if r < d.pos || r >= d.end {
					return true
				}
			}
			return false
		}
		if !outside(refs[modPath+"/"+d.key]) && !(d.method && outside(ifaceRefs[d.name])) {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out, nil
}

// funcKey names f as the scan does: import path + "." + name for a
// function, import path + ".Type." + name for a concrete method (of the
// generic origin, for an instantiated one). A method called through an
// interface has no one declaration: iface reports it, and the scan matches
// it by name. Methods of the universe (error.Error) have no key.
func funcKey(f *types.Func) (key string, iface bool) {
	f = f.Origin()
	if f.Pkg() == nil {
		return "", false
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return f.Pkg().Path() + "." + f.Name(), false
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if types.IsInterface(t) {
		return "", true
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	return f.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + f.Name(), false
}

// reachLoader type-checks packages from source: the scanned directories in
// full, recording what every identifier refers to, and the standard
// library's declarations only (function bodies skipped).
type reachLoader struct {
	fset *token.FileSet
	ctx  build.Context
	dirs map[string]string         // scanned import path → directory
	pkgs map[string]*types.Package // checked, by import path
	mods []reachPkg                // the scanned packages checked so far
}

// reachPkg is one scanned package's syntax and resolved identifiers.
type reachPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
}

func (l *reachLoader) Import(ip string) (*types.Package, error) { return l.ImportFrom(ip, "", 0) }

// ImportFrom implements types.ImporterFrom.
func (l *reachLoader) ImportFrom(ip, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if ip == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	dir, scanned := l.dirs[ip]
	if !scanned {
		// The standard library, vendored packages under its own path.
		bp, err := l.ctx.Import(ip, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		if p, ok := l.pkgs[bp.ImportPath]; ok {
			return p, nil
		}
		ip, dir = bp.ImportPath, bp.Dir
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !scanned, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
	var info *types.Info
	if scanned {
		info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	}
	p, err := conf.Check(ip, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ip] = p
	if scanned {
		l.mods = append(l.mods, reachPkg{ip, files, info})
	}
	return p, nil
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
