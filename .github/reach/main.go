// Command reach is the CI reachability gate. Every func declared in a
// non-test file outside cmd/, examples/ and bench/ must be linked into a
// shipped binary — a main under cmd/ or examples/, or bench/ — or be listed
// with a reason in .github/reach-allow.txt. The binaries are built without
// inlining, so small functions keep their symbols. A listed function that is
// linked, or no longer declared, is a stale line and fails the gate too.
//
// Run it from the repository root: go run ./.github/reach
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowFile = ".github/reach-allow.txt"

func main() {
	log.SetFlags(0)
	log.SetPrefix("reach: ")
	linked, err := linkedSymbols()
	if err != nil {
		log.Fatal(err)
	}
	declared := declaredFuncs()
	allow, bad := readAllowList()
	for sym, pos := range declared {
		switch listed := allow[sym]; {
		case linked[sym] && listed:
			bad = append(bad, allowFile+": stale: "+sym+" is linked")
		case !linked[sym] && !listed:
			bad = append(bad, pos+": "+sym+" is linked into no binary")
		}
	}
	for sym := range allow {
		if _, ok := declared[sym]; !ok {
			bad = append(bad, allowFile+": stale: "+sym+" is not declared")
		}
	}
	sort.Strings(bad)
	for _, l := range bad {
		fmt.Println(l)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
	fmt.Printf("reach: %d functions, %d allowed unlinked\n", len(declared), len(allow))
}

// symbolForm reduces a linker symbol to the declared form: generic
// instantiations lose their "[...]" and pointer receivers their "(*...)",
// so "p.(*T[...]).M" reads "p.T.M".
var symbolForm = strings.NewReplacer("(*", "", ")", "")
var typeArgs = regexp.MustCompile(`\[[^\]]*\]`)

// linkedSymbols builds the shipped binaries and returns the text symbols
// they hold, in declared form.
func linkedSymbols() (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	mains, _ := filepath.Glob("cmd/*/main.go")
	examples, _ := filepath.Glob("examples/*/main.go")
	type build struct{ dir, pkg string }
	builds := []build{{"bench", "."}}
	for _, m := range append(mains, examples...) {
		builds = append(builds, build{".", "./" + filepath.Dir(m)})
	}
	linked := make(map[string]bool)
	for i, b := range builds {
		bin := filepath.Join(tmp, fmt.Sprint(i))
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %s in %s: %v\n%s", b.pkg, b.dir, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm: %v", err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolForm.Replace(typeArgs.ReplaceAllString(f[2], ""))] = true
			}
		}
	}
	return linked, nil
}

// declaredFuncs returns the position of every func declared in a non-test
// file outside cmd/, examples/, bench/ and the directories the go tool
// skips, keyed "importpath.Name" or "importpath.Recv.Name". init and blank
// funcs are left out: nothing can call them by name.
func declaredFuncs() map[string]string {
	declared := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			switch {
			case path == "cmd", path == "examples", path == "bench", name == "testdata",
				strings.HasPrefix(name, "."), strings.HasPrefix(name, "_"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Join("patterndp", filepath.Dir(path)))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			sym := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv := typeArgs.ReplaceAllString(types.ExprString(fn.Recv.List[0].Type), "")
				sym = pkg + "." + strings.TrimPrefix(recv, "*") + "." + fn.Name.Name
			}
			declared[sym] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return declared
}

// readAllowList reads "symbol reason" lines, skipping blank lines and #
// comments. A line without a reason, or a symbol listed twice, is an error.
func readAllowList() (allow map[string]bool, bad []string) {
	data, err := os.ReadFile(allowFile)
	if err != nil {
		log.Fatal(err)
	}
	allow = make(map[string]bool)
	for n, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case len(f) == 1:
			bad = append(bad, fmt.Sprintf("%s:%d: %s has no reason", allowFile, n+1, f[0]))
		case allow[f[0]]:
			bad = append(bad, fmt.Sprintf("%s:%d: %s is listed twice", allowFile, n+1, f[0]))
		default:
			allow[f[0]] = true
		}
	}
	return allow, bad
}
