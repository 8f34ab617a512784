package repro_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDocNamesResolve holds the prose to the code: every backticked
// `pkg.Name` in DESIGN.md, README.md and EXPERIMENTS.md whose pkg is a package
// of this module must name a declaration of that package, a method included,
// test files included; every backticked `Type.Member` whose Type is an
// exported type declared in the module must name a method or field of that
// type, one promoted from an embedded type included; and every backticked
// bare exported name (`RunStudy`, `Fig7()`) must be declared somewhere in the
// module, as itself or as a benchmark (`AblationUnroll` is
// `BenchmarkAblationUnroll`), or in a standard-library package the module
// imports (`Float64bits`). Names of other packages (the standard library's)
// are not checked, nor are snake_case names, which are the benchmark
// ledger's metrics (`sim.bb_minstr_per_s`), nor all-caps words (`POST`,
// `GOMAXPROCS`), nor selectors after the first. A type name that several
// packages declare may name a member of any of them.
func TestDocNamesResolve(t *testing.T) {
	mod := moduleDecls(t)
	var std map[string]bool
	span := regexp.MustCompile("`[^`]+`")
	ref := regexp.MustCompile(`(?:^|[^\w/.])([a-z][a-z0-9]*)\.([A-Za-z]\w*)`)
	member := regexp.MustCompile(`(?:^|[^\w/.])([A-Z]\w*)\.([A-Za-z]\w*)`)
	bare := regexp.MustCompile("^`([A-Z]\\w*)(?:\\(.*\\))?`$")
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
			if m := bare.FindStringSubmatch(code); m != nil && m[1] != strings.ToUpper(m[1]) &&
				!mod.all[m[1]] && !mod.all["Benchmark"+m[1]] {
				if std == nil {
					std = stdNames(t)
				}
				if !std[m[1]] {
					t.Errorf("%s:%d: %s names %s, which neither the module nor the standard library it imports declares", doc, line, code, m[1])
				}
			}
			checkFlags(t, doc, line, strings.Trim(code, "`"))
		}
		for _, cl := range fencedLines(string(text)) {
			checkFlags(t, doc, cl.line, cl.text)
		}
	}
}

// TestDesignCoversEveryPackage holds DESIGN.md's structure to the tree: every
// directory under internal/ with non-test Go files has exactly one
// "### internal/<pkg>" section, no such section names a directory without
// them, every one of those sections and the "### cmd" section backticks at
// least one test, fuzz or benchmark name (TestDocNamesResolve fails on a name
// nothing declares), and the "### cmd" section names every cmd/<name> that
// has a main.go. A section runs from its heading to the next heading.
func TestDesignCoversEveryPackage(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`^### (internal/\S+|cmd)\s*$`)
	testName := regexp.MustCompile("`(?:Test|Fuzz|Benchmark)[A-Z]\\w*`")
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(withoutFences(string(text)), "\n") {
		if strings.HasPrefix(line, "#") {
			cur = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				cur = m[1]
				sections[cur] = append(sections[cur], "")
			}
			continue
		}
		if cur != "" {
			bodies := sections[cur]
			bodies[len(bodies)-1] += line + "\n"
		}
	}

	pkgs := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && e.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !e.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range pkgs {
		if len(sections[pkg]) != 1 {
			t.Errorf("DESIGN.md has %d sections \"### %s\", want 1", len(sections[pkg]), pkg)
		}
	}
	if len(sections["cmd"]) != 1 {
		t.Fatalf("DESIGN.md has %d sections \"### cmd\", want 1", len(sections["cmd"]))
	}
	for name, bodies := range sections {
		if name != "cmd" && !pkgs[name] {
			t.Errorf("DESIGN.md: section \"### %s\" names no package with non-test Go files", name)
		}
		for _, body := range bodies {
			if !testName.MatchString(body) {
				t.Errorf("DESIGN.md: section \"### %s\" backticks no test, fuzz or benchmark name", name)
			}
		}
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mains {
		cmd := filepath.ToSlash(filepath.Dir(m))
		if !regexp.MustCompile(regexp.QuoteMeta(cmd) + `(?:[^\w-]|$)`).MatchString(sections["cmd"][0]) {
			t.Errorf("DESIGN.md: section \"### cmd\" does not name %s", cmd)
		}
	}
}

// TestInternalPackagesHaveImporters fails when a package under internal/ has
// no importer outside its own directory among the module's non-test files:
// a package that only tests reach is test code in production. benchmark/ is
// a module of its own, so its imports do not count.
func TestInternalPackagesHaveImporters(t *testing.T) {
	const module = "repro/"
	pkgs, imported := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range moduleFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dep, ok := strings.CutPrefix(p, module); ok && dep != dir {
				imported[dep] = true
			}
		}
	}
	for dir := range pkgs {
		if !imported[dir] {
			t.Errorf("%s: no non-test file of the module outside it imports it", dir)
		}
	}
}

// TestCIMatchesDesign holds ci.yml to what DESIGN.md and the code say it
// runs: the gate command in DESIGN.md's Gates section is the bench job's
// "gate benchmarks" command (whitespace normalised, `| tee bench.out`
// dropped), and the fuzz step runs exactly the module's Fuzz targets, each
// in its own package.
func TestCIMatchesDesign(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, gates, _ := strings.Cut(string(design), "\n## Gates\n")
	var doc string
	for _, l := range fencedLines(gates) {
		if strings.HasPrefix(l.text, "go test ") && strings.Contains(l.text, " -bench ") {
			doc = strings.Join(strings.Fields(l.text), " ")
			break
		}
	}
	// The step's folded scalar: the lines indented under its `run: >`.
	_, step, _ := strings.Cut(string(ci), "- name: gate benchmarks\n")
	_, step, _ = strings.Cut(step, "run: >\n")
	var run []string
	for _, l := range strings.Split(step, "\n") {
		if !strings.HasPrefix(l, "          ") {
			break
		}
		run = append(run, l)
	}
	gate := strings.Join(strings.Fields(strings.ReplaceAll(strings.Join(run, " "), "| tee bench.out", "")), " ")
	if doc == "" || doc != gate {
		t.Errorf("DESIGN.md's gate command\n\t%s\nis not ci.yml's gate benchmarks step\n\t%s", doc, gate)
	}

	fuzzed := map[string]bool{} // "./pkg Fuzz..."
	for _, m := range regexp.MustCompile(`go test (\S+) -run '\^\$' -fuzz (\w+) `).FindAllStringSubmatch(string(ci), -1) {
		fuzzed[m[1]+" "+m[2]] = true
	}
	targets := map[string]bool{}
	for _, path := range moduleFiles(t) {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`).FindAllStringSubmatch(string(src), -1) {
			targets["./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
		}
	}
	for target := range targets {
		if !fuzzed[target] {
			t.Errorf("ci.yml's fuzz step does not run %s", target)
		}
	}
	for target := range fuzzed {
		if !targets[target] {
			t.Errorf("ci.yml's fuzz step runs %s, which the module does not declare", target)
		}
	}
	if len(targets) == 0 {
		t.Error("found no Fuzz targets")
	}
}

// command matches a command line of this repo's tools: `go run ./cmd/<name>`
// or the bare (or path-qualified) binary name, followed by its arguments.
var command = regexp.MustCompile(`^(?:go run \./cmd/([\w-]+)|(?:[\w./-]*/)?(empirico-worker|empiricod|empirico|simrun|minicc|plotfigs|loadgen))(?:\s|$)`)

// TestDocCaps holds the two reference documents to their line caps, so a
// section that grows must first shrink another.
func TestDocCaps(t *testing.T) {
	for doc, limit := range map[string]int{"README.md": 400, "DESIGN.md": 450} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(text), "\n"); n > limit {
			t.Errorf("%s: %d lines, over its cap of %d", doc, n, limit)
		}
	}
}

// listSep splits a shell line into its commands: pipelines, lists,
// background jobs and redirections each end one.
var listSep = regexp.MustCompile(`&&|\|\||[|;&>]`)

// cmdFlags caches each command's declared flags; nil for a command with no
// main.go.
var cmdFlags = map[string]map[string]bool{}

// checkFlags holds one command line to its command: every -flag after a
// repo command must be declared by a flag.* call in cmd/<name>/main.go.
func checkFlags(t *testing.T, doc string, line int, text string) {
	t.Helper()
	if i := strings.Index(text, "#"); i >= 0 {
		text = text[:i]
	}
	for _, part := range listSep.Split(text, -1) {
		part = strings.TrimPrefix(strings.TrimSpace(part), "$ ")
		m := command.FindStringSubmatch(part)
		if m == nil {
			continue
		}
		name := m[1] + m[2]
		flags, ok := cmdFlags[name]
		if !ok {
			flags = declaredFlags(filepath.Join("cmd", name, "main.go"))
			cmdFlags[name] = flags
		}
		if flags == nil {
			t.Errorf("%s:%d: %q runs %s, which has no cmd/%s/main.go", doc, line, part, name, name)
			continue
		}
		for _, arg := range strings.Fields(part[len(m[0]):]) {
			f := strings.TrimLeft(arg, "-")
			if dashes := len(arg) - len(f); dashes == 0 || dashes > 2 || f == "" || !isLetter(f[0]) {
				continue // an operand, a value, or a negative number
			}
			f, _, _ = strings.Cut(f, "=")
			if !flags[f] {
				t.Errorf("%s:%d: %q passes -%s, which %s does not declare", doc, line, part, f, name)
			}
		}
	}
}

func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// declaredFlags returns the names of the flags a command's main.go declares
// with flag.* calls: the first string literal argument of each. It returns
// nil when the file does not parse or does not exist.
func declaredFlags(path string) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil
	}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					out[name] = true
				}
				break
			}
		}
		return true
	})
	return out
}

// codeLine is one logical line of a fenced code block, backslash
// continuations joined, with the file line it starts on.
type codeLine struct {
	line int
	text string
}

// fencedLines returns the logical lines of the text's fenced code blocks.
func fencedLines(text string) []codeLine {
	var out []codeLine
	fenced, cont := false, false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, cont = !fenced, false
			continue
		}
		if !fenced {
			continue
		}
		body := strings.TrimSuffix(line, "\\")
		if cont {
			out[len(out)-1].text += " " + strings.TrimSpace(body)
		} else {
			out = append(out, codeLine{i + 1, strings.TrimSpace(body)})
		}
		cont = len(body) < len(line)
	}
	return out
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
	all     map[string]bool // every name above, whatever declares it
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

// moduleFiles returns the paths of the module's Go files, test files
// included (benchmark/ is a module of its own).
func moduleFiles(t *testing.T) []string {
	var paths []string
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || e.Name() == "benchmark") {
			return filepath.SkipDir
		}
		if !e.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// moduleDecls parses every Go file of the module into its decls.
func moduleDecls(t *testing.T) decls {
	d := decls{names: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, all: map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
		d.all[name] = true
	}
	fset := token.NewFileSet()
	for _, path := range moduleFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if d.names[pkg] == nil {
			d.names[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.names[pkg][decl.Name.Name] = true
				d.all[decl.Name.Name] = true
				if decl.Recv != nil {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.names[pkg][typ] = true
						d.all[typ] = true
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
							d.all[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// stdNames returns the package-level names that the standard-library
// packages the module imports declare in their non-test files.
func stdNames(t *testing.T) map[string]bool {
	names, seen := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range moduleFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if seen[p] {
				continue
			}
			seen[p] = true
			pkg, err := build.Import(p, "", 0)
			if err != nil || !pkg.Goroot {
				continue
			}
			for _, name := range pkg.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				for n := range f.Scope.Objects {
					names[n] = true
				}
			}
		}
	}
	return names
}

// callerAllowlist holds the exported functions and methods that keep no
// non-test caller on purpose, each with its reason. Keys are
// pkg.Name or pkg.Type.Method.
var callerAllowlist = map[string]string{
	"model.SelectByCV":    "kept for ROADMAP item 1b: CV model selection",
	"exp.Study.Refine":    "kept for ROADMAP item 15: the refine-to-accuracy loop",
	"farm.Executor":       "oracle: the per-point compile+simulate path that farm, exp and root tests hold the grouped path to",
	"search.RandomSearch": "kept: the GA's baseline in BenchmarkAblationSearch",
	"search.HillClimb":    "kept: the GA's baseline in BenchmarkAblationSearch",
	"lang.GenProgram":     "oracle input: the seeded program generator of the sim and lang fuzz targets and the compiler's differential test",
	"smarts.Store.Stats":  "kept: the checkpoint store's counters, which golden_test.go reads",
	"sim.Executor.Run":    "oracle: the functional interpreter that sim, compiler and workloads tests run programs on",
	"linalg.LogDetGram":   "oracle: the D-optimal criterion that doe and linalg tests share",
}

// TestExportsHaveNonTestCallers holds DESIGN.md's caller rule for names: an
// exported function or method declared under internal/ must be referenced by
// some non-test file of the module or of benchmark/. It type-checks every
// non-test package under internal/, cmd/, examples/ and benchmark/ (the
// standard library from source), so a call through a promoted or generic
// method counts for the method it resolves to. A method that satisfies an
// interface declaring it (one of the module's, or error, fmt.Stringer,
// json.Unmarshaler, http.ResponseWriter, http.Flusher, or the
// interface{ Unwrap() error } that errors.Is and errors.As call) is called
// through that interface and is exempt, as is callerAllowlist.
func TestExportsHaveNonTestCallers(t *testing.T) {
	im := loadModule(t)
	fset, files, info := im.fset, im.files, im.info

	// A function's references from inside its own body do not count.
	body := map[types.Object]ast.Node{}
	for _, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					body[info.Defs[fd.Name]] = fd
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if n := body[obj]; n == nil || id.Pos() < n.Pos() || id.Pos() >= n.End() {
			used[obj] = true
		}
	}

	var ifaces []*types.Interface
	for _, p := range im.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	for _, q := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Unmarshaler"},
		{"net/http", "ResponseWriter"}, {"net/http", "Flusher"}} {
		p, err := im.Import(q[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, p.Scope().Lookup(q[1]).Type().Underlying().(*types.Interface))
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces = append(ifaces, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if types.IsInterface(recv) {
			return false
		}
		for _, iface := range ifaces {
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == fn.Name() &&
					(types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
					return true
				}
			}
		}
		return false
	}

	allowed := map[string]bool{} // allowlist entries that are uncalled exports
	check := func(pkg, key string, fn *types.Func) {
		if !fn.Exported() || used[fn] {
			return
		}
		if _, ok := callerAllowlist[pkg+"."+key]; ok {
			allowed[pkg+"."+key] = true
			return
		}
		if fn.Type().(*types.Signature).Recv() != nil && satisfies(fn) {
			return
		}
		t.Errorf("%s: %s.%s has no non-test caller", fset.Position(fn.Pos()), pkg, key)
	}
	for path, p := range im.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		pkg := p.Name()
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				check(pkg, name, obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					check(pkg, name+"."+named.Method(i).Name(), named.Method(i))
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						check(pkg, name+"."+iface.ExplicitMethod(i).Name(), iface.ExplicitMethod(i))
					}
				}
			}
		}
	}
	for key := range callerAllowlist {
		if !allowed[key] {
			t.Errorf("callerAllowlist: %s is not an uncalled export; drop its entry", key)
		}
	}
}

// optionsAllowlist holds the exported fields of the internal Options
// structs that no production file sets, each with the reason it stays a
// field rather than a constant.
var optionsAllowlist = map[string]string{
	"dist.Options.LeaseTimeout":    "tests run the lease clock in milliseconds; production keeps 15 s",
	"dist.WorkerOptions.Heartbeat": "tests heartbeat in milliseconds under short leases; production keeps 500 ms",
	"dist.WorkerOptions.Measure":   "test seam: a stub executor in place of compile and simulate",
	"serve.Options.Trainer":        "test seam: a stub trainer in place of RunStudy",
	"farm.Options.MaxInstrs":       "tests shrink the instruction budget to reach an overrun; production keeps 500M",
	"model.MARSOptions.MaxTerms":   "MARS complexity control, left open until ROADMAP item 1 settles pruning",
	"model.MARSOptions.MaxDegree":  "MARS complexity control, left open until ROADMAP item 1 settles pruning",
	"model.MARSOptions.MaxKnots":   "MARS complexity control, left open until ROADMAP item 1 settles pruning",
	"model.MARSOptions.Penalty":    "MARS complexity control, left open until ROADMAP item 1 settles pruning",
	"model.RBFOptions.LeafSizes":   "tests fit RBF-RT at one leaf size on designs too small for the grid",
	"doe.DOptions.Candidates":      "tests shrink the candidate pool to keep the exchange fast",
}

// TestOptionsHaveProductionWriters holds the rule that a knob production
// never turns is a constant: every exported field of an exported struct
// named Options or ...Options under internal/ must be set by a non-test,
// non-example file of the module or of benchmark/. A field counts as set
// where it is a composite-literal key, or where a package other than its
// own assigns it (or takes its address); a package filling in its own
// defaults does not set anything. optionsAllowlist exempts the rest, and
// an entry that names a field production sets, or no field at all, fails.
func TestOptionsHaveProductionWriters(t *testing.T) {
	im := loadModule(t)
	set := map[*types.Var]bool{}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := im.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	for path, files := range im.files {
		if strings.HasPrefix(path, "repro/examples/") {
			continue
		}
		assigned := func(x ast.Expr) {
			if sel, ok := x.(*ast.SelectorExpr); ok {
				if v := field(sel.Sel); v != nil && v.Pkg().Path() != path {
					set[v] = true
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v := field(id); v != nil {
							set[v] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assigned(lhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						assigned(n.X)
					}
				}
				return true
			})
		}
	}

	allowed := map[string]bool{}
	for path, p := range im.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if !v.Exported() || set[v] {
					continue
				}
				key := p.Name() + "." + name + "." + v.Name()
				if _, ok := optionsAllowlist[key]; ok {
					allowed[key] = true
					continue
				}
				t.Errorf("%s: %s has no production writer; make it a constant, or allowlist it with a reason",
					im.fset.Position(v.Pos()), key)
			}
		}
	}
	for key := range optionsAllowlist {
		if !allowed[key] {
			t.Errorf("optionsAllowlist: %s is not an unset Options field; drop its entry", key)
		}
	}
}

var (
	moduleOnce sync.Once
	moduleIm   *moduleImporter
	moduleErr  error
)

// loadModule parses and type-checks the non-test files of internal/, cmd/,
// examples/ and benchmark/ (the standard library from source) once per test
// binary, for the tests that read the module through go/types. It skips
// under -short.
func loadModule(t *testing.T) *moduleImporter {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	moduleOnce.Do(func() { moduleIm, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleIm
}

func typeCheckModule() (*moduleImporter, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	for _, root := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
			files[pkg] = append(files[pkg], f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	im := &moduleImporter{fset: fset, files: files, info: info,
		std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	for path := range files {
		if _, err := im.Import(path); err != nil {
			return nil, err
		}
	}
	return im, nil
}

// moduleImporter type-checks the module's packages from their parsed
// non-test files and everything else through std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	im.pkgs[path] = p
	return p, err
}
