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
// test files included. Names of other packages (the standard library's) are
// not checked, nor are snake_case names, which are the benchmark ledger's
// metrics (`sim.bb_minstr_per_s`), nor selectors after the first.
func TestDocNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	span := regexp.MustCompile("`[^`]+`")
	ref := regexp.MustCompile(`(?:^|[^\w/.])([a-z][a-z0-9]*)\.([A-Za-z]\w*)`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := withoutFences(string(text))
		for _, loc := range span.FindAllStringIndex(prose, -1) {
			code := prose[loc[0]:loc[1]]
			for _, m := range ref.FindAllStringSubmatch(code, -1) {
				pkg, name := m[1], m[2]
				if strings.Contains(name, "_") && name == strings.ToLower(name) {
					continue
				}
				if names, ok := decls[pkg]; ok && !names[name] {
					line := 1 + strings.Count(prose[:loc[0]], "\n")
					t.Errorf("%s:%d: %s names %s.%s, which package %s does not declare", doc, line, code, pkg, name, pkg)
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

// moduleDecls parses every Go file of the module (benchmark/ is a module of
// its own) and returns the names each package declares at top level or as a
// method, an external test package's under the package it tests.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "benchmark") {
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
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[pkg][d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[pkg][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[pkg][n.Name] = true
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
