package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocNamesResolve holds the prose to the code: every backticked
// `pkg.Name` in DESIGN.md, README.md and EXPERIMENTS.md whose pkg is a package
// of this module must name a declaration of that package, a method included,
// test files included; and every backticked `Type.Member` whose Type is an
// exported type declared in the module must name a method or field of that
// type, one promoted from an embedded type included. Names of other packages
// (the standard library's) are not checked, nor are snake_case names, which
// are the benchmark ledger's metrics (`sim.bb_minstr_per_s`), nor selectors
// after the first. A type name that several packages declare may name a
// member of any of them.
func TestDocNamesResolve(t *testing.T) {
	mod := moduleDecls(t)
	span := regexp.MustCompile("`[^`]+`")
	ref := regexp.MustCompile(`(?:^|[^\w/.])([a-z][a-z0-9]*)\.([A-Za-z]\w*)`)
	member := regexp.MustCompile(`(?:^|[^\w/.])([A-Z]\w*)\.([A-Za-z]\w*)`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := withoutFences(string(text))
		for _, loc := range span.FindAllStringIndex(prose, -1) {
			code := prose[loc[0]:loc[1]]
			line := 1 + strings.Count(prose[:loc[0]], "\n")
			for _, m := range ref.FindAllStringSubmatch(code, -1) {
				pkg, name := m[1], m[2]
				if strings.Contains(name, "_") && name == strings.ToLower(name) {
					continue
				}
				if names, ok := mod.names[pkg]; ok && !names[name] {
					t.Errorf("%s:%d: %s names %s.%s, which package %s does not declare", doc, line, code, pkg, name, pkg)
				}
			}
			for _, m := range member.FindAllStringSubmatch(code, -1) {
				typ, name := m[1], m[2]
				if _, ok := mod.members[typ]; ok && !mod.hasMember(typ, name, map[string]bool{}) {
					t.Errorf("%s:%d: %s names %s.%s, which type %s has no method or field %s", doc, line, code, typ, name, typ, name)
				}
			}
		}
	}
}

// withoutFences blanks the lines of fenced code blocks (shell sessions,
// diagrams), keeping the line count so positions still point at the file.
func withoutFences(text string) string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// decls is what the module declares: the names each package declares at
// top level or as a method, an external test package's under the package it
// tests; and per type name, across packages, the methods and fields it has
// and the types it embeds.
type decls struct {
	names   map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

// hasMember reports whether typ, or a type it embeds, has a method or field
// called name.
func (d decls) hasMember(typ, name string, seen map[string]bool) bool {
	if d.members[typ][name] {
		return true
	}
	seen[typ] = true
	for _, e := range d.embeds[typ] {
		if !seen[e] && d.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// typeName is the bare name of a receiver or embedded type expression:
// T, *T, pkg.T and T[P] are all T.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}

// moduleDecls parses every Go file of the module (benchmark/ is a module of
// its own) into its decls.
func moduleDecls(t *testing.T) decls {
	d := decls{names: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || e.Name() == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if d.names[pkg] == nil {
			d.names[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.names[pkg][decl.Name.Name] = true
				if decl.Recv != nil {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.names[pkg][typ] = true
						if !ast.IsExported(typ) {
							continue
						}
						member(typ, "") // declared, even with no members
						var fields *ast.FieldList
						switch x := spec.Type.(type) {
						case *ast.StructType:
							fields = x.Fields
						case *ast.InterfaceType:
							fields = x.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							if len(field.Names) == 0 {
								embedded := typeName(field.Type)
								member(typ, embedded)
								d.embeds[typ] = append(d.embeds[typ], embedded)
							}
							for _, n := range field.Names {
								member(typ, n.Name)
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.names[pkg][n.Name] = true
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
	return d
}
