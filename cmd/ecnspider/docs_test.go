package main

// README.md and DESIGN.md against the code that exists: a Go name they
// show in backticks from one of this module's packages must be one a
// reader can find.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goRefRE finds a Go name in an inline code span: (*pkg.T).Method
// (group 1, then 2–4), or pkg.Name, pkg.T.Member or pkg.Prefix* (group
// 5, then 6–9).
var goRefRE = regexp.MustCompile(`(\(\*?([a-z][a-z0-9]*)\.([A-Z]\w*)\)\.([A-Z]\w*))|(?:^|[^\w.*])(([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?(\*)?)`)

// moduleDecls indexes the declarations of this module's non-main
// packages, tests included, under root: package name → top-level name →
// the methods, fields and interface methods declared on it.
func moduleDecls(t *testing.T, root string) map[string]map[string]map[string]bool {
	t.Helper()
	decls := make(map[string]map[string]map[string]bool)
	declare := func(pkg, name, member string) {
		if decls[pkg] == nil {
			decls[pkg] = make(map[string]map[string]bool)
		}
		if decls[pkg][name] == nil {
			decls[pkg][name] = make(map[string]bool)
		}
		if member != "" {
			decls[pkg][name][member] = true
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(pkg, decl.Name.Name, "")
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok { // a generic receiver
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					declare(pkg, id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(pkg, spec.Name.Name, "")
						members := new(ast.FieldList)
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields
						case *ast.InterfaceType:
							members = typ.Methods
						}
						for _, field := range members.List {
							for _, n := range field.Names {
								declare(pkg, spec.Name.Name, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declare(pkg, n.Name, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// staleRefs returns each Go name doc's inline code spans show from one
// of decls' packages that resolves to no declaration there, after its
// line number.
func staleRefs(doc string, decls map[string]map[string]map[string]bool) []string {
	var stale []string
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if fenced {
			continue
		}
		for _, span := range inlineRE.FindAllStringSubmatch(line, -1) {
			for _, m := range goRefRE.FindAllStringSubmatch(span[1], -1) {
				ref, pkg, name, member, prefix := m[1], m[2], m[3], m[4], false
				if ref == "" {
					ref, pkg, name, member, prefix = m[5], m[6], m[7], m[8], m[9] != ""
				}
				names, ok := decls[pkg]
				if !ok {
					continue // not this module's package
				}
				found := false
				if prefix {
					for n := range names {
						found = found || strings.HasPrefix(n, name)
					}
				} else if members, ok := names[name]; ok {
					found = member == "" || members[member]
				}
				if !found {
					stale = append(stale, fmt.Sprintf("%d: `%s`", i+1, ref))
				}
			}
		}
	}
	return stale
}

// TestDocsNameLiveCode: every `pkg.Name`, `pkg.T.Member`, `pkg.Prefix*`
// or `(*pkg.T).Method` README.md and DESIGN.md show in an inline code
// span, whose package is one of this module's, resolves to a
// declaration: a deleted or renamed name fails here until the prose
// stops showing it.
func TestDocsNameLiveCode(t *testing.T) {
	decls := moduleDecls(t, "../..")
	if len(decls["campaign"]) == 0 || len(decls["server"]) == 0 {
		t.Fatal("the declaration index misses the module's packages")
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, ref := range staleRefs(string(readFile(t, "../../"+doc)), decls) {
			t.Errorf("%s:%s names nothing this module declares", doc, ref)
		}
	}
}
