// Package wlgen generates synthetic MiniC programs from seeded,
// parameterized kernel templates: six families — stencils, hash joins,
// string matching, sparse algebra, state machines and tree walks — each
// instantiated with randomized sizes, constants and structure. The
// simulator's FuzzEnginesAgree draws its programs from Generate.
//
// Generation is strictly deterministic: a program is a pure function of its
// seed, byte-identical across runs, machines and Go versions (the frozen
// math/rand generator). Every emitted program is semantically valid,
// terminates, and computes the same result under every compiler
// configuration — properties the package test pins over 52 seeds.
package wlgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Program is one generated workload: a kernel template instantiated at one
// parameter draw.
type Program struct {
	Name     string // e.g. "gen.stencil-5851f42d4c957f2d"
	Template string // template family name
	Source   string // MiniC source text
}

// splitmix64 whitens seeds so that nearby seeds produce unrelated parameter
// draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Generate builds the program of one seed: the seed picks a template family
// and all its parameters.
func Generate(seed int64) Program {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed)))))
	t := templates[rng.Intn(len(templates))]
	return Program{
		Name:     fmt.Sprintf("gen.%s-%016x", t.name, uint64(seed)),
		Template: t.name,
		Source:   t.gen(rng),
	}
}

// template is one kernel family: a name and a parameterized source emitter.
type template struct {
	name string
	gen  func(rng *rand.Rand) string
}

// src builds MiniC text with brace-tracked indentation. Emitters use fixed
// variable names — every program is an independent compilation unit, so no
// global freshness counter is needed (which is exactly what keeps generation
// per-seed deterministic, unlike lang.GenProgram).
type src struct {
	b     strings.Builder
	depth int
}

func (s *src) line(format string, args ...any) {
	for i := 0; i < s.depth; i++ {
		s.b.WriteByte('\t')
	}
	fmt.Fprintf(&s.b, format, args...)
	s.b.WriteByte('\n')
}

// open emits a statement head and its opening brace, indenting what follows.
func (s *src) open(format string, args ...any) {
	s.line(format+" {", args...)
	s.depth++
}

// alt closes the then-branch and opens the else-branch.
func (s *src) alt() {
	s.depth--
	s.line("} else {")
	s.depth++
}

func (s *src) close() {
	s.depth--
	s.line("}")
}

func (s *src) String() string { return s.b.String() }
