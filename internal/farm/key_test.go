package farm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/doe"
	"repro/internal/workloads"
)

// keyRef is Key as first written, printing through fmt into hash/fnv: the
// oracle the memoized derivation must match byte for byte, so that every
// committed cache stays valid.
func keyRef(w workloads.Workload, p doe.Point) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v3|%s|%s|", w.Key(), w.Source)
	for _, v := range p {
		fmt.Fprintf(h, "%d,", v)
	}
	return fmt.Sprintf("%s|%x", w.Key(), h.Sum64())
}

// binaryKeyRef is BinaryKey as first written, the oracle for BinaryKey.
func binaryKeyRef(w workloads.Workload, p doe.Point) string {
	cfg := doe.ToConfig(p)
	h := fnv.New64a()
	fmt.Fprintf(h, "v3|%s|%s|w%d|", w.Key(), w.Source, cfg.IssueWidth)
	for _, v := range p[:doe.NumCompilerVars] {
		fmt.Fprintf(h, "%d,", v)
	}
	return fmt.Sprintf("%s|bin%x", w.Key(), h.Sum64())
}

// extremes returns copies of p with values LHS never draws: negative, zero,
// and ±2^62, in the compiler block and the microarchitecture block alike.
func extremes(p doe.Point) []doe.Point {
	var out []doe.Point
	for _, v := range []int64{-1, 0, -7, 1 << 62, -(1 << 62), 9} {
		for _, i := range []int{0, doe.NumCompilerVars - 1, doe.NumCompilerVars, len(p) - 1} {
			q := append(doe.Point(nil), p...)
			q[i] = v
			out = append(out, q)
		}
	}
	return out
}

// TestKeyMatchesRef: Key and BinaryKey equal their fmt oracles on LHS points
// of every workload at both input classes, and on values outside the space.
func TestKeyMatchesRef(t *testing.T) {
	pts := doe.JointSpace().LatinHypercube(12, rand.New(rand.NewSource(5)))
	pts = append(pts, extremes(pts[0])...)
	for _, name := range workloads.Names() {
		for _, class := range []workloads.InputClass{workloads.Train, workloads.Ref} {
			w := workloads.MustGet(name, class)
			for _, p := range pts {
				if got, want := Key(w, p), keyRef(w, p); got != want {
					t.Fatalf("%s %v: Key %s, want %s", w.Key(), p, got, want)
				}
				if got, want := BinaryKey(w, p), binaryKeyRef(w, p); got != want {
					t.Fatalf("%s %v: BinaryKey %s, want %s", w.Key(), p, got, want)
				}
			}
		}
	}
}

// TestKeyGoldens pins three keys as the first derivation computed them.
func TestKeyGoldens(t *testing.T) {
	p0 := doe.Point{0, 0, 1, 1, 1, 0, 0, 1, 0, 100, 50, 16, 4, 200, 2, 2048, 16, 32, 8, 2, 2, 256, 1, 11, 50}
	p1 := doe.Point{1, 1, 0, 0, 0, 1, 1, 0, 1, 50, 25, 12, 8, 100, 4, 512, 64, 8, 32, 1, 1, 2048, 4, 6, 100}
	p2 := doe.Point{-7, 0, 1 << 62, 0, 0, 1, 1, 0, 1, 50, 25, 12, 8, 100, 4, 512, 64, 8, 32, 1, 1, 2048, 4, 6, -(1 << 62)}
	art := workloads.MustGet("179.art", workloads.Train)
	gzip := workloads.MustGet("164.gzip", workloads.Ref)
	for _, c := range []struct{ got, want string }{
		{Key(art, p0), "179.art-train|4b3b61166d8060e4"},
		{BinaryKey(gzip, p1), "164.gzip-graphic-ref|bin54ceea0f62d15180"},
		{Key(gzip, p2), "164.gzip-graphic-ref|749250cd4803825f"},
	} {
		if c.got != c.want {
			t.Errorf("key %s, want %s", c.got, c.want)
		}
	}
}

// TestSourceCacheIsBounded: keying more distinct sources than the memo's
// bound leaves at most the bound resident.
func TestSourceCacheIsBounded(t *testing.T) {
	p := doe.JointSpace().LatinHypercube(1, rand.New(rand.NewSource(1)))[0]
	for i := 0; i <= 2*sourceCacheSize; i++ {
		w := workloads.Workload{Name: "n", Input: "i", Source: fmt.Sprintf("int main() { return %d; }", i)}
		if got, want := Key(w, p), keyRef(w, p); got != want {
			t.Fatalf("source %d: Key %s, want %s", i, got, want)
		}
	}
	if n := sourceCache.Stats().Len; n > sourceCacheSize {
		t.Fatalf("%d sources resident, bound %d", n, sourceCacheSize)
	}
}

// FuzzKey: Key and BinaryKey equal their oracles for any workload and point.
// The point is read from raw bytes, eight to a value, and padded to the
// joint space's length. Explore with
// `go test ./internal/farm -run '^$' -fuzz FuzzKey`.
func FuzzKey(f *testing.F) {
	f.Add("179.art", "train", "int main() { return 0; }", []byte{1, 2, 3})
	f.Add("", "", "", []byte(nil))
	f.Add("a|b", "-", "\x00\xff|v3|", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, name, input, source string, raw []byte) {
		w := workloads.Workload{Name: name, Input: input, Source: source}
		p := make(doe.Point, max(len(raw)/8, len(doe.JointSpace().Vars)))
		for i := range len(raw) / 8 {
			p[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if got, want := Key(w, p), keyRef(w, p); got != want {
			t.Fatalf("Key %q, want %q", got, want)
		}
		if got, want := BinaryKey(w, p), binaryKeyRef(w, p); got != want {
			t.Fatalf("BinaryKey %q, want %q", got, want)
		}
	})
}
