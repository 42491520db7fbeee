package main

// README.md and DESIGN.md against the code that exists: a Go name they
// show in backticks from one of this module's packages must be one a
// reader can find.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goRefRE finds a Go name in an inline code span: (*pkg.T).Method
// (group 1, then 2–4), or pkg.Name, pkg.T.Member or pkg.Prefix* (group
// 5, then 6–9).
var goRefRE = regexp.MustCompile(`(\(\*?([a-z][a-z0-9]*)\.([A-Z]\w*)\)\.([A-Z]\w*))|(?:^|[^\w.*])(([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?(\*)?)`)

// srcFile is one parsed Go file of this module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	test bool   // a _test.go file
	f    *ast.File
}

// parseModule parses, comments included, every Go file under root
// outside hidden and testdata directories.
func parseModule(t *testing.T, root string) (*token.FileSet, []srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
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
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(rel), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// recvName is the name of a method's receiver type, generic or not.
func recvName(fn *ast.FuncDecl) string {
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// moduleDecls indexes the declarations of this module's non-main
// packages, tests included: package name → top-level name → the
// methods, fields and interface methods declared on it.
func moduleDecls(files []srcFile) map[string]map[string]map[string]bool {
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
	for _, sf := range files {
		pkg := strings.TrimSuffix(sf.f.Name.Name, "_test")
		if pkg == "main" {
			continue
		}
		for _, decl := range sf.f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declare(pkg, decl.Name.Name, "")
				} else if recv := recvName(decl); recv != "" {
					declare(pkg, recv, decl.Name.Name)
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
							if len(field.Names) == 0 { // embedded: the field is named after its type
								typ := field.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								if id, ok := typ.(*ast.Ident); ok {
									declare(pkg, spec.Name.Name, id.Name)
								}
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
	}
	return decls
}

// span is one inline code span of a Markdown document.
type span struct {
	line int
	text string
}

// inlineSpans returns doc's inline code spans outside fenced blocks.
func inlineSpans(doc string) []span {
	var spans []span
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if fenced {
			continue
		}
		for _, m := range inlineRE.FindAllStringSubmatch(line, -1) {
			spans = append(spans, span{i + 1, m[1]})
		}
	}
	return spans
}

// staleRefs returns each Go name text shows from one of decls' packages
// that resolves to no declaration there.
func staleRefs(text string, decls map[string]map[string]map[string]bool) []string {
	var stale []string
	for _, m := range goRefRE.FindAllStringSubmatch(text, -1) {
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
			stale = append(stale, ref)
		}
	}
	return stale
}

// memberSpanRE is a whole inline code span naming a member of a type
// without its package: T.member, T.member() or (*T).member.
var memberSpanRE = regexp.MustCompile(`^(?:\(\*([A-Z]\w*)\)|([A-Z]\w*))\.(\w+)(?:\(\))?$`)

// staleMember reports whether span is a T.member span whose T some
// package of decls declares, but none of its types named T has the
// member, directly or through a field named like a type (an embedded
// field is named after its type). A T no package declares
// (time.Duration, say) is not this module's, and passes.
func staleMember(span string, decls map[string]map[string]map[string]bool) bool {
	m := memberSpanRE.FindStringSubmatch(span)
	if m == nil {
		return false
	}
	declared := false
	var has func(typ, member string, depth int) bool
	has = func(typ, member string, depth int) bool {
		for _, names := range decls {
			members, ok := names[typ]
			if !ok {
				continue
			}
			declared = true
			if members[member] {
				return true
			}
			for field := range members {
				if depth < 3 && field[0] >= 'A' && field[0] <= 'Z' && has(field, member, depth+1) {
					return true
				}
			}
		}
		return false
	}
	return !has(m[1]+m[2], m[3], 0) && declared
}

// TestDocsNameLiveCode: every `pkg.Name`, `pkg.T.Member`, `pkg.Prefix*`
// or `(*pkg.T).Method` whose package is one of this module's, shown in
// an inline code span of README.md or DESIGN.md or named in a comment
// of a non-test Go file, resolves to a declaration, and so does every
// span that is a whole `T.member` or `(*T).member` of a type this
// module declares: a deleted or renamed name fails here until the
// prose stops showing it.
func TestDocsNameLiveCode(t *testing.T) {
	fset, files := parseModule(t, "../..")
	decls := moduleDecls(files)
	if len(decls["campaign"]) == 0 || len(decls["server"]) == 0 {
		t.Fatal("the declaration index misses the module's packages")
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, sp := range inlineSpans(string(readFile(t, "../../"+doc))) {
			refs := staleRefs(sp.text, decls)
			if staleMember(sp.text, decls) {
				refs = append(refs, sp.text)
			}
			for _, ref := range refs {
				t.Errorf("%s:%d: `%s` names nothing this module declares", doc, sp.line, ref)
			}
		}
	}
	for _, sf := range files {
		if sf.test {
			continue
		}
		for _, group := range sf.f.Comments {
			for _, c := range group.List {
				line := fset.Position(c.Pos()).Line
				for i, text := range strings.Split(c.Text, "\n") {
					for _, ref := range staleRefs(text, decls) {
						t.Errorf("%s:%d: comment names %s, which nothing this module declares", sf.path, line+i, ref)
					}
				}
			}
		}
	}
}

// TestStaleMemberSpans: a T.member span resolves against the fields
// and methods of every module type named T, test files' included, and
// a planted span naming a member no such type has is stale.
func TestStaleMemberSpans(t *testing.T) {
	_, files := parseModule(t, "../..")
	decls := moduleDecls(files)
	for span, want := range map[string]bool{
		"Sim.nextLane":     false, // a method
		"(*Link).boundary": false,
		"Stats.Dequeued":   false, // a field of one of several Stats types
		"Queue.Boundary":   false, // an interface method
		"Sim.pending":      false, // declared in a test file
		"Config.Shards()":  false,
		"Config.Scenario":  false, // promoted from the embedded Spec
		"Duration.Seconds": false, // no module type is named Duration
		"Sim.finishAhead":  true,
		"World.stateHash2": true,
		"(*Link).sendd":    true,
		"Sim.Step()":       false,
	} {
		if got := staleMember(span, decls); got != want {
			t.Errorf("staleMember(%q) = %v, want %v", span, got, want)
		}
	}
}

// repoPathRE is a path into the tree (./ allowed) in an inline code
// span, without any :line suffix.
var repoPathRE = regexp.MustCompile(`(?:^|\s)(?:\./)?((?:cmd|internal|bench|scripts|\.github)/[^\s:]*)`)

// TestDocsShowLivePaths: every path under cmd/, internal/, bench/,
// scripts/ or .github/ that README.md or DESIGN.md shows in an inline
// code span exists.
func TestDocsShowLivePaths(t *testing.T) {
	n := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, sp := range inlineSpans(string(readFile(t, "../../"+doc))) {
			for _, m := range repoPathRE.FindAllStringSubmatch(sp.text, -1) {
				n++
				if _, err := os.Stat(filepath.Join("../..", m[1])); err != nil {
					t.Errorf("%s:%d: `%s` is no path in the tree", doc, sp.line, m[1])
				}
			}
		}
	}
	if n < 50 {
		t.Fatalf("found %d repository paths in the docs; the scan misses them", n)
	}
}

// TestFuzzSmokeListsEveryTarget: the Makefile's FUZZ_TARGETS, which
// make fuzz-smoke runs one by one, are exactly the fuzz targets
// declared under internal/, so a new or renamed target cannot be left
// out of the smoke run.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	listed := make(map[string]bool)
	in := false
	for _, line := range strings.Split(string(readFile(t, "../../Makefile")), "\n") {
		if strings.HasPrefix(line, "FUZZ_TARGETS") {
			in = true
			continue
		}
		if !in {
			continue
		}
		entry := strings.TrimSpace(strings.TrimSuffix(line, "\\"))
		if entry != "" {
			listed[entry] = true
		}
		if !strings.HasSuffix(line, "\\") {
			break
		}
	}
	_, files := parseModule(t, "../..")
	declared := make(map[string]bool)
	for _, sf := range files {
		if !sf.test || !strings.HasPrefix(sf.path, "internal/") {
			continue
		}
		for _, d := range sf.f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared[path.Dir(sf.path)+":"+fn.Name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz target under internal/")
	}
	for target := range declared {
		if !listed[target] {
			t.Errorf("%s is a fuzz target the Makefile's FUZZ_TARGETS leaves out", target)
		}
	}
	for target := range listed {
		if !declared[target] {
			t.Errorf("the Makefile's FUZZ_TARGETS lists %s, which no test file under internal/ declares", target)
		}
	}
	t.Logf("%d fuzz targets, %d listed", len(declared), len(listed))
}
