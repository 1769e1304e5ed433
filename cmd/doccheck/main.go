// Command doccheck is the repository's missing-godoc lint: it parses
// the given Go files or directories and fails when an exported
// package-level identifier, struct field or interface method lacks a
// doc comment, or when a package has no package-level documentation.
// Test files are skipped.
//
// Usage:
//
//	doccheck codesign.go internal/sweep        # CI's doc lint step lists every checked path
//	doccheck ./internal/...                    # (no pattern expansion; list dirs explicitly)
//
// Exit status is 1 when any identifier is undocumented, with one line
// per finding.
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
		fmt.Fprintln(os.Stderr, "usage: doccheck <file.go|dir> ...")
		os.Exit(2)
	}
	var findings []string
	for _, arg := range os.Args[1:] {
		f, err := checkPath(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifiers\n", len(findings))
		os.Exit(1)
	}
}

// checkPath lints one file or every non-test .go file of a directory.
func checkPath(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			files = append(files, filepath.Join(path, name))
		}
	}
	fset := token.NewFileSet()
	var findings []string
	pkgDoc := false
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(fset, f, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if file.Doc != nil {
			pkgDoc = true
		}
		findings = append(findings, checkFile(fset, file)...)
	}
	if info.IsDir() && len(files) > 0 && !pkgDoc {
		findings = append(findings, fmt.Sprintf("%s: package has no package-level doc comment", path))
	}
	return findings, nil
}

// checkFile reports every undocumented exported identifier in one
// parsed file.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		out = append(out, fmt.Sprintf("%s: undocumented exported %s %s", fset.Position(pos), what, name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			checkGenDecl(d, report)
		}
	}
	return out
}

// checkGenDecl lints one const/var/type declaration. A doc comment on
// the declaration group covers its specs (the "// Span categories."
// const-block idiom); an undocumented group requires per-spec docs.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDoc && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			checkTypeBody(s.Name.Name, s.Type, report)
		case *ast.ValueSpec:
			for _, n := range s.Names {
				if !n.IsExported() {
					continue
				}
				if !groupDoc && s.Doc == nil && s.Comment == nil {
					report(n.Pos(), kindOf(d.Tok), n.Name)
				}
			}
		}
	}
}

// checkTypeBody lints the exported fields of a struct type and the
// exported methods of an interface type.
func checkTypeBody(typeName string, expr ast.Expr, report func(token.Pos, string, string)) {
	switch t := expr.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			if f.Doc != nil || f.Comment != nil {
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					report(n.Pos(), "field", typeName+"."+n.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					report(n.Pos(), "interface method", typeName+"."+n.Name)
				}
			}
		}
	}
}

// exportedReceiver reports whether a declaration is a plain function
// or a method on an exported type; methods on unexported types are
// not part of the godoc surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func kindOf(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
