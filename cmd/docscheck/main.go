// Command docscheck fails when a package exports an undocumented
// identifier: a package without a package comment, or an exported
// function, method, type, constant, or variable without a doc comment.
// It is the `make docs-check` CI gate over the root package and every
// internal package; being ~100 lines of go/ast it needs no linter binary.
//
// Usage:
//
//	docscheck $(go list -f '{{.Dir}}' . ./internal/...)
//
// Exits 1 listing every violation as file:line: message.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck <package-dir> ...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d undocumented exported identifier(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and reports
// violations to stderr, returning how many it found.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
			bad += checkFile(fset, f)
		}
		if !hasPkgDoc {
			fmt.Fprintf(os.Stderr, "%s: package %s has no package comment\n",
				filepath.Clean(dir), pkg.Name)
			bad++
		}
	}
	return bad
}

func checkFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	complain := func(pos token.Pos, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(pos), fmt.Sprintf(format, args...))
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if recv := receiverType(d); recv != "" {
				if ast.IsExported(recv) {
					complain(d.Pos(), "exported method %s.%s has no doc comment", recv, d.Name.Name)
				}
				continue
			}
			complain(d.Pos(), "exported function %s has no doc comment", d.Name.Name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && d.Doc == nil && ts.Doc == nil {
						complain(ts.Pos(), "exported type %s has no doc comment", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A doc comment on the grouped declaration covers every spec
				// in it (the `const ( ... )` block idiom).
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, name := range vs.Names {
						if name.IsExported() {
							complain(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// receiverType names a method's receiver type ("" for plain functions),
// unwrapping pointers and generic instantiations.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
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
