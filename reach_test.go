package mnn_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowlist names the internal functions that no binary keeps but
// that stay, one per line: the name as this test prints it, then why it
// stays — "oracle:", "test hook:" or "public API:" and the reason.
const unreachedAllowlist = "testdata/unreached.txt"

// TestEveryInternalFunctionIsReached builds every command, every example and
// the benchmark with inlining off and the linker's dependency dump on, so the
// dump lists every function a binary keeps. A function declared under
// internal/ that none keeps is code only tests run: it fails the test unless
// the allowlist names it with its reason. An allowlist line whose function is
// gone or now reached fails it too.
func TestEveryInternalFunctionIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary with the linker's dependency dump (≈ 10 s warm)")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	reached := linkedFuncs(t, goBin)
	inIface := interfaceMethodNames(t)
	allow := readUnreachedAllowlist(t)

	declared := map[string]bool{}
	var unreached []string
	for _, fn := range internalFuncs(t) {
		declared[fn.name] = true
		switch {
		case reached[fn.name]:
			if _, ok := allow[fn.name]; ok {
				t.Errorf("%s: %s is reached by a binary; remove it from the allowlist", unreachedAllowlist, fn.name)
			}
		case fn.method != "" && inIface[fn.method]:
			// The dump drops a method no interface call uses, but a type
			// assertion to an interface naming it still needs it.
		default:
			if _, ok := allow[fn.name]; !ok {
				unreached = append(unreached, fn.name+" ("+fn.pos+")")
			}
		}
	}
	for name := range allow {
		if !declared[name] {
			t.Errorf("%s: %s is not declared under internal/", unreachedAllowlist, name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no binary reaches %s: delete it, or name it in %s with its reason", u, unreachedAllowlist)
	}
}

// linkedFuncs returns every function under mnn/internal that some command,
// example or the benchmark links, named as internalFuncs names them.
func linkedFuncs(t *testing.T, goBin string) map[string]bool {
	mains, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	// Each build is a directory to run in and the package to build there.
	var builds [][2]string
	for _, dir := range append(mains, examples...) {
		builds = append(builds, [2]string{".", "./" + filepath.ToSlash(dir)})
	}
	builds = append(builds, [2]string{"benchmark", "."})

	bin := filepath.Join(t.TempDir(), "bin")
	reached := map[string]bool{}
	for _, b := range builds {
		// One build job at a time: other packages' timing tests may be
		// running beside this one.
		cmd := exec.Command(goBin, "build", "-p", "1", "-o", bin, "-gcflags=all=-l", "-ldflags=-dumpdep", b[1])
		cmd.Dir = b[0]
		dump, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s in %s: %v\n%.2000s", b[1], b[0], err, dump)
		}
		for _, line := range strings.Split(string(dump), "\n") {
			from, to, ok := strings.Cut(line, " -> ")
			if !ok {
				continue
			}
			for _, sym := range []string{from, to} {
				if name, ok := strings.CutPrefix(linkerName(sym), "mnn/internal/"); ok {
					reached[name] = true
				}
			}
		}
	}
	if len(reached) == 0 {
		t.Fatal("the dependency dumps name no internal function")
	}
	return reached
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// linkerName turns a linker symbol into pkg.Func or pkg.Type.Method:
// generic instantiations lose their type arguments (cpu.get[go.shape.*uint8]
// is cpu.get) and pointer receivers their (*…).
func linkerName(sym string) string {
	for strings.Contains(sym, "[") {
		s := typeArgs.ReplaceAllString(sym, "")
		if s == sym {
			break
		}
		sym = s
	}
	if i := strings.Index(sym, ".(*"); i >= 0 {
		if j := strings.Index(sym[i:], ")"); j >= 0 {
			sym = sym[:i+1] + sym[i+3:i+j] + sym[i+j+1:]
		}
	}
	return sym
}

type declaredFunc struct {
	name   string // pkg.Func or pkg.Type.Method, pkg relative to internal/
	method string // the method's name, "" for a function
	pos    string
}

// internalFuncs lists the functions and methods declared in the non-test Go
// files under internal/ that this platform builds.
func internalFuncs(t *testing.T) []declaredFunc {
	var fns []declaredFunc
	fset := token.NewFileSet()
	walkGoFiles(t, "internal", func(path string) {
		dir, file := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, file); err != nil || !ok {
			return
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(dir, "internal"+string(filepath.Separator))))
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn := declaredFunc{name: pkg + "." + fd.Name.Name, pos: fset.Position(fd.Pos()).String()}
			if fd.Recv != nil {
				fn.name = pkg + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				fn.method = fd.Name.Name
			}
			fns = append(fns, fn)
		}
	})
	if len(fns) == 0 {
		t.Fatal("found no function under internal/")
	}
	return fns
}

func receiverName(e ast.Expr) string {
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

// interfaceMethodNames returns the method names that some interface declared
// in the module's non-test files lists.
func interfaceMethodNames(t *testing.T) map[string]bool {
	names := map[string]bool{}
	fset := token.NewFileSet()
	walkGoFiles(t, ".", func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						names[id.Name] = true
					}
				}
			}
			return true
		})
	})
	return names
}

// walkGoFiles calls fn on every non-test .go file under root, skipping
// testdata and hidden directories.
func walkGoFiles(t *testing.T, root string, fn func(path string)) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readUnreachedAllowlist returns the allowlist's names and reasons, and fails
// on a line without a name or whose reason is not an oracle, a test hook or
// public API.
func readUnreachedAllowlist(t *testing.T) map[string]string {
	data, err := os.ReadFile(unreachedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		kind, why, _ := strings.Cut(reason, ":")
		switch {
		case kind != "oracle" && kind != "test hook" && kind != "public API":
			t.Errorf("%s:%d: %s: the reason must start with oracle:, test hook: or public API:", unreachedAllowlist, i+1, name)
		case strings.TrimSpace(why) == "":
			t.Errorf("%s:%d: %s: say why it stays", unreachedAllowlist, i+1, name)
		case allow[name] != "":
			t.Errorf("%s:%d: %s is listed twice", unreachedAllowlist, i+1, name)
		}
		allow[name] = reason
	}
	return allow
}
