package workloads

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/lang"
)

// TestGetBuildsSourceOnce: Get returns what the benchmark's builder makes at
// that class, for every benchmark at both classes, and the second Get returns
// the very string the first did, not a rebuilt copy.
func TestGetBuildsSourceOnce(t *testing.T) {
	builders := map[string]func(InputClass) string{
		"164.gzip": gzipSource, "175.vpr": vprSource, "177.mesa": mesaSource, "179.art": artSource,
		"181.mcf": mcfSource, "255.vortex": vortexSource, "256.bzip2": bzip2Source,
	}
	for _, name := range Names() {
		for _, class := range []InputClass{Train, Ref} {
			w := MustGet(name, class)
			want := Workload{Name: name, Input: inputLabel(name, class), Class: class, Source: builders[name](class)}
			if w != want {
				t.Fatalf("Get(%s, %s) differs from its builder's workload", name, class)
			}
			if again := MustGet(name, class); unsafe.StringData(again.Source) != unsafe.StringData(w.Source) {
				t.Fatalf("Get(%s, %s) rebuilt its source", name, class)
			}
		}
	}
}

// TestParseMemoized pins the per-process parse cache: two compiles of the
// same workload must share one AST, so the second Parse is pointer-equal to
// the first — no re-parse.
func TestParseMemoized(t *testing.T) {
	w := MustGet("179.art", Train)
	first := w.Parse()
	if again := w.Parse(); again != first {
		t.Fatal("second Parse returned a fresh AST: parse is not memoized")
	}
	// A second Get of the same workload carries the same source string and
	// must hit the same cache entry.
	if other := MustGet("179.art", Train).Parse(); other != first {
		t.Fatal("Parse of an equal workload missed the cache")
	}
	if ref := MustGet("179.art", Ref).Parse(); ref == first {
		t.Fatal("distinct sources share an AST")
	}
}

// TestParseCacheIsBounded: after parseCacheSize other distinct sources, the
// first source's AST is no longer resident and Parse builds a fresh one.
func TestParseCacheIsBounded(t *testing.T) {
	w := func(i int) Workload { return Workload{Source: fmt.Sprintf("int main() { return %d; }", i)} }
	first := w(0).Parse()
	for i := 1; i <= parseCacheSize; i++ {
		w(i).Parse()
	}
	if w(0).Parse() == first {
		t.Fatalf("after %d other sources the first AST is still cached", parseCacheSize)
	}
}

// TestParseSharedASTImmutable guards the invariant the cache rests on: the
// compiler treats its input program as read-only (lowering builds a fresh
// IR program), so aggressive compiles of the shared AST leave it deep-equal
// to a fresh parse of the same source.
func TestParseSharedASTImmutable(t *testing.T) {
	w := MustGet("164.gzip", Train)
	shared := w.Parse()
	snapshot := lang.MustParse(w.Source) // private copy, never compiled

	for _, opts := range []compiler.Options{compiler.O2(), compiler.O3()} {
		if _, _, err := compiler.Compile(shared, opts); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(shared, snapshot) {
		t.Fatal("compiling the shared AST mutated it")
	}
}
