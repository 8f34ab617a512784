// Package workloads provides the seven benchmark programs used throughout
// the evaluation, standing in for the paper's SPEC CPU2000 program-input
// pairs. Each MiniC program reproduces the dominant computational character
// of its namesake — compression dictionary matching for gzip, maze routing
// for vpr, rasterization for mesa, neural-network resonance for art, network
// simplex pricing for mcf, an object database for vortex and block sorting
// for bzip2 — at simulator-friendly scale, with deterministic inputs
// generated in-program from a seeded linear congruential generator.
//
// Every workload comes in two input classes mirroring SPEC's train and ref
// sets: same code, different data sizes and seeds.
package workloads

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/lang"
	"repro/internal/par"
)

// InputClass selects the input scale.
type InputClass string

const (
	// Train is the smaller profiling input (the paper builds models on
	// train inputs in the profile-guided scenario of Table 7).
	Train InputClass = "train"
	// Ref is the larger reference input.
	Ref InputClass = "ref"
)

// Workload is one benchmark program at one input class. Its JSON form is
// what dist.GroupRequest carries to a worker.
type Workload struct {
	Name   string     `json:"name"`  // e.g. "164.gzip"
	Input  string     `json:"input"` // input label, e.g. "graphic" or "train"
	Class  InputClass `json:"class"`
	Source string     `json:"source"` // MiniC source text
}

// Key returns "name-input", e.g. "179.art-train".
func (w Workload) Key() string { return w.Name + "-" + w.Input }

// parseCacheSize bounds the parse cache, in sources. The seven seed programs
// at two input classes are 14; the bound is for empirico-worker, which parses
// every source a coordinator leases to it.
const parseCacheSize = 256

// parseCache memoizes Parse by source text: parse cost is paid once per
// process per distinct source, and every caller shares one AST. Safe because
// the compiler treats its input as read-only (lowering builds a fresh IR
// program) — TestParseSharedASTImmutable pins that invariant.
var parseCache = par.NewCache[string, *lang.Program](parseCacheSize)

// Parse returns the checked AST of the workload source, memoized per
// distinct source text. It panics on error: workload sources are compiled
// into the binary and covered by tests, and empirico-worker checks a leased
// source before it measures it. Callers must not mutate the result.
func (w Workload) Parse() *lang.Program {
	p, _, _ := parseCache.Get(context.Background(), w.Source, func() (*lang.Program, error) { return lang.MustParse(w.Source), nil })
	return p
}

// sources holds each benchmark's MiniC source, built on first use and kept:
// [0] at the train input, [1] at the ref input. Every builder reads its class
// only as Ref or not, so [0] is the source at any class but Ref.
var sources = map[string][2]func() string{
	"164.gzip":   once(gzipSource),
	"175.vpr":    once(vprSource),
	"177.mesa":   once(mesaSource),
	"179.art":    once(artSource),
	"181.mcf":    once(mcfSource),
	"255.vortex": once(vortexSource),
	"256.bzip2":  once(bzip2Source),
}

func once(build func(InputClass) string) [2]func() string {
	return [2]func() string{
		sync.OnceValue(func() string { return build(Train) }),
		sync.OnceValue(func() string { return build(Ref) }),
	}
}

// Names lists the seven benchmarks in the paper's order.
func Names() []string {
	return []string{
		"164.gzip", "175.vpr", "177.mesa", "179.art",
		"181.mcf", "255.vortex", "256.bzip2",
	}
}

// inputLabel mirrors the paper's program-input naming (Table 3/7).
func inputLabel(name string, class InputClass) string {
	switch name {
	case "164.gzip", "256.bzip2":
		if class == Train {
			return "graphic"
		}
		return "graphic-ref"
	case "175.vpr":
		if class == Train {
			return "route"
		}
		return "route-ref"
	case "255.vortex":
		if class == Train {
			return "lendian1"
		}
		return "lendian1-ref"
	default:
		return string(class)
	}
}

// Get returns the named benchmark at the given input class. Its source is
// built once per process and class, so every call returns the same string.
func Get(name string, class InputClass) (Workload, error) {
	src, ok := sources[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	built := src[0]
	if class == Ref {
		built = src[1]
	}
	return Workload{
		Name:   name,
		Input:  inputLabel(name, class),
		Class:  class,
		Source: built(),
	}, nil
}

// MustGet is Get that panics on error.
func MustGet(name string, class InputClass) Workload {
	w, err := Get(name, class)
	if err != nil {
		panic(err)
	}
	return w
}
