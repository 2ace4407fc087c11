// Command lintdoc is the repository's exported-comment linter: every
// exported identifier in non-test Go source must carry a doc comment, and
// the comment must open with the identifier it documents (types may lead
// with an article), in the style golint/revive enforce. It is kept in-tree
// (stdlib go/ast only, no module downloads) so scripts/check.sh and CI can
// run it anywhere the Go toolchain exists.
//
// Usage:
//
//	go run ./scripts/lintdoc [dir ...]
//
// With no arguments the current directory tree is linted. Exit status is 1
// when any exported identifier lacks a comment or any doc comment fails the
// prefix rule, 2 on usage or parse errors. The prefix rule is checked on
// declarations whose doc is unambiguously theirs: functions, methods, and
// types always; consts and vars only when the comment sits on a single-name
// spec or a single-spec declaration (a grouped block's shared comment
// legitimately names none of its members).
//
// The same walk runs the reachability check (reach.go):
//
//	go tool nm <binaries> | go run ./scripts/lintdoc -reach <allowlist> [module dir]
//
// reads the symbols of every binary the module builds, each binary's after a
// "binary <import path>" line, and fails on a non-test function that no
// binary contains and the allowlist does not name, or on an allowlist entry
// that names a reached or missing one.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) >= 3 && os.Args[1] == "-reach" {
		root := "."
		if len(os.Args) > 3 {
			root = os.Args[3]
		}
		bad, err := reachCheck(root, os.Args[2], os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lintdoc: %v\n", err)
			os.Exit(2)
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "lintdoc: %d reachability finding(s)\n", bad)
			os.Exit(1)
		}
		return
	}
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad := 0
	for _, root := range roots {
		n, err := lintTree(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lintdoc: %v\n", err)
			os.Exit(2)
		}
		bad += n
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lintdoc: %d doc-comment finding(s) on exported identifiers\n", bad)
		os.Exit(1)
	}
}

// lintTree walks one directory tree and lints every non-test Go file,
// returning the number of findings.
func lintTree(root string) (int, error) {
	bad := 0
	err := walkGo(root, false, func(path string, fset *token.FileSet, f *ast.File) {
		bad += lintFile(fset, f)
	})
	return bad, err
}

// walkGo parses every non-test Go file under root, skipping vendor,
// testdata and dot directories, and nested modules when sameModule is set.
func walkGo(root string, sameModule bool, visit func(path string, fset *token.FileSet, f *ast.File)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			if sameModule && path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		visit(path, fset, f)
		return nil
	})
}

// lintFile reports exported identifiers lacking a doc comment on their
// declaration (or, for grouped specs, on the spec itself).
func lintFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, kind, name string) {
		fmt.Printf("%s: exported %s %s should have a doc comment\n", fset.Position(pos), kind, name)
		bad++
	}
	checkPrefix := func(doc *ast.CommentGroup, kind string, name *ast.Ident, allowArticle bool) {
		if doc == nil || docStartsWithName(doc, name.Name, allowArticle) {
			return
		}
		fmt.Printf("%s: comment on exported %s %s should start with %q\n",
			fset.Position(name.Pos()), kind, name.Name, name.Name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && !receiverExported(d.Recv) {
				continue // method on an unexported type: not part of the API surface
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			if d.Doc == nil {
				report(d.Name.Pos(), kind, d.Name.Name)
				continue
			}
			checkPrefix(d.Doc, kind, d.Name, false)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil {
						report(s.Name.Pos(), "type", s.Name.Name)
						continue
					}
					if doc := s.Doc; doc != nil {
						checkPrefix(doc, "type", s.Name, true)
					} else if len(d.Specs) == 1 {
						checkPrefix(d.Doc, "type", s.Name, true)
					}
				case *ast.ValueSpec:
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(name.Pos(), kind, name.Name)
						}
					}
					// The prefix rule needs a comment that names exactly one
					// identifier: a spec-level doc on a single-name spec, or
					// the decl doc of a single-spec, single-name declaration.
					if len(s.Names) != 1 || !s.Names[0].IsExported() {
						continue
					}
					if doc := s.Doc; doc != nil {
						checkPrefix(doc, kind, s.Names[0], false)
					} else if len(d.Specs) == 1 {
						checkPrefix(d.Doc, kind, s.Names[0], false)
					}
				}
			}
		}
	}
	return bad
}

// docStartsWithName reports whether a doc comment's text opens with the
// identifier it documents, followed by a word boundary. Types may lead with
// an article ("A", "An", "The"); "Deprecated:" notices are exempt, matching
// the convention golint established.
func docStartsWithName(doc *ast.CommentGroup, name string, allowArticle bool) bool {
	text := strings.TrimSpace(doc.Text())
	if text == "" || strings.HasPrefix(text, "Deprecated:") {
		return true
	}
	if allowArticle {
		for _, a := range []string{"A ", "An ", "The "} {
			if strings.HasPrefix(text, a) {
				text = text[len(a):]
				break
			}
		}
	}
	if !strings.HasPrefix(text, name) {
		return false
	}
	rest := text[len(name):]
	if rest == "" {
		return true
	}
	r := rune(rest[0])
	return !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
}

// receiverExported reports whether a method's receiver names an exported
// type.
func receiverExported(recv *ast.FieldList) bool {
	return len(recv.List) > 0 && ast.IsExported(receiverName(recv))
}
