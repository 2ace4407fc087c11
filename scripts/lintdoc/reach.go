package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// typeArgs matches the innermost type-argument list of a generic instance's
// symbol; its brackets may hold dots and slashes of their own.
var typeArgs = regexp.MustCompile(`\[[^][]*\]`)

// reachCheck is the reachability check: r carries `go tool nm` output of
// every binary built from the module at root, each binary's symbols after a
// "binary <import path>" line naming its main package. Every non-test
// top-level function or method of the module that no binary contains must
// be named in the allowlist file with its reason, and every allowlist entry
// must name a function that exists and that no binary contains; an
// "<import path>.*" entry exempts a whole package. It returns the number of
// findings.
func reachCheck(root, allowPath string, r io.Reader) (int, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return 0, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(m)
			break
		}
	}
	reached, err := readSymbols(r, module)
	if err != nil {
		return 0, err
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		return 0, err
	}
	declared := map[string]string{} // key -> position
	pkgs := map[string]bool{}
	err = walkGo(root, true, func(path string, fset *token.FileSet, f *ast.File) {
		pkg := module
		if rel, _ := filepath.Rel(root, filepath.Dir(path)); rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		pkgs[pkg] = true
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || fn.Recv == nil && fn.Name.Name == "main" {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + receiverName(fn.Recv) + "." + fn.Name.Name
			}
			if !reached[key] && allow[key] == "" && allow[pkg+".*"] == "" {
				declared[key] = fset.Position(fn.Pos()).String()
				continue
			}
			declared[key] = ""
		}
	})
	if err != nil {
		return 0, err
	}
	var out []string
	for key, pos := range declared {
		if pos != "" {
			out = append(out, fmt.Sprintf("%s: %s is reached by no binary: delete it, or list it in %s with its reason", pos, key, allowPath))
		}
	}
	for key := range allow {
		pkg, wild := strings.CutSuffix(key, ".*")
		_, exists := declared[key]
		switch {
		case wild && !pkgs[pkg]:
			out = append(out, fmt.Sprintf("%s: package %s no longer exists", allowPath, pkg))
		case !wild && !exists:
			out = append(out, fmt.Sprintf("%s: %s no longer exists", allowPath, key))
		case !wild && reached[key]:
			out = append(out, fmt.Sprintf("%s: %s is reached by a binary: drop its entry", allowPath, key))
		}
	}
	sort.Strings(out)
	for _, line := range out {
		fmt.Println(line)
	}
	return len(out), nil
}

// readSymbols collects the module's text symbols from nm output as
// "<import path>.<func>" and "<import path>.<type>.<method>" keys. A
// closure, a method value or a generic instance also marks the function it
// belongs to, and main's symbols belong to the package named by the last
// "binary" line.
func readSymbols(r io.Reader, module string) (map[string]bool, error) {
	reached := map[string]bool{}
	binary := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == "binary" {
			binary = fields[1]
			continue
		}
		if len(fields) < 3 || fields[len(fields)-2] != "T" && fields[len(fields)-2] != "t" {
			continue
		}
		sym := fields[len(fields)-1]
		for prev := ""; prev != sym; {
			prev, sym = sym, typeArgs.ReplaceAllString(sym, "")
		}
		if after, ok := strings.CutPrefix(sym, "main."); ok {
			sym = binary + "." + after
		} else if !strings.HasPrefix(sym, module+".") && !strings.HasPrefix(sym, module+"/") {
			continue
		}
		slash := strings.LastIndex(sym, "/") + 1
		dot := slash + strings.Index(sym[slash:], ".")
		parts := strings.Split(strings.NewReplacer("(*", "", ")", "", "-fm", "").Replace(sym[dot+1:]), ".")
		for i := range parts {
			reached[sym[:dot]+"."+strings.Join(parts[:i+1], ".")] = true
		}
	}
	if len(reached) == 0 {
		return nil, fmt.Errorf("no symbol of module %s on the input: feed it go tool nm output", module)
	}
	return reached, sc.Err()
}

// readAllow parses the allowlist: "<key>  <reason>" a line, blank lines and
// "#" comments skipped. An entry without a reason is an error.
func readAllow(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s carries no reason", path, i+1, key)
		}
		allow[key] = reason
	}
	return allow, nil
}

// receiverName returns the type name of a method's receiver, unwrapping
// pointers and type parameters.
func receiverName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
