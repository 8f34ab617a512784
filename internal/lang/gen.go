package lang

import (
	"fmt"
	"math/rand"
	"strings"
)

// GenProgram produces a random, semantically valid MiniC program from a
// seeded generator. Generated programs always terminate (loops have bounded
// trip counts) and exercise arithmetic, global arrays, conditionals, nested
// loops and function calls. The compiler test suite uses them for
// differential testing: every optimization configuration must compute the
// same result.
func GenProgram(rng *rand.Rand) string {
	g := &generator{rng: rng}
	return g.program()
}

type generator struct {
	rng    *rand.Rand
	sb     strings.Builder
	arrays []genArray
	scals  []string
	funcs  []genFunc
	locals []string // in-scope locals while emitting a function body
	depth  int
	loops  int
	inLoop int // current loop nesting (calls are only generated outside loops)
	nvars  int // fresh names so far: per program, so the text is a function of the rng

	// protected marks live loop induction variables: they may be read but
	// never reassigned, which keeps every generated loop terminating.
	protected map[string]bool
}

type genArray struct {
	name string
	size int
}

type genFunc struct {
	name   string
	params int
}

func (g *generator) program() string {
	nArrays := 1 + g.rng.Intn(3)
	for i := 0; i < nArrays; i++ {
		// 16 to 4096 words: the largest (32 KB) spills a small data cache.
		a := genArray{name: fmt.Sprintf("arr%d", i), size: 16 << (2 * g.rng.Intn(5))}
		g.arrays = append(g.arrays, a)
		fmt.Fprintf(&g.sb, "int %s[%d];\n", a.name, a.size)
	}
	nScal := g.rng.Intn(3)
	for i := 0; i < nScal; i++ {
		name := fmt.Sprintf("glob%d", i)
		g.scals = append(g.scals, name)
		fmt.Fprintf(&g.sb, "int %s = %d;\n", name, g.rng.Intn(100)-50)
	}

	nFuncs := g.rng.Intn(3)
	for i := 0; i < nFuncs; i++ {
		g.emitFunc(fmt.Sprintf("fn%d", i), 1+g.rng.Intn(3))
	}
	g.emitMain()
	return g.sb.String()
}

func (g *generator) emitFunc(name string, params int) {
	f := genFunc{name: name, params: params}
	var ps []string
	g.locals = nil
	for i := 0; i < params; i++ {
		p := fmt.Sprintf("p%d", i)
		ps = append(ps, "int "+p)
		g.locals = append(g.locals, p)
	}
	fmt.Fprintf(&g.sb, "int %s(%s) {\n", name, strings.Join(ps, ", "))
	g.depth = 1
	g.block(2 + g.rng.Intn(4))
	g.line("return " + g.expr(2) + ";")
	g.sb.WriteString("}\n")
	g.funcs = append(g.funcs, f) // callable only by later functions: no recursion blowup
}

func (g *generator) emitMain() {
	g.locals = nil
	g.sb.WriteString("int main() {\n")
	g.depth = 1
	// Seed the arrays deterministically so loads are meaningful.
	for _, a := range g.arrays {
		iv := g.fresh()
		g.line(fmt.Sprintf("for (int %s = 0; %s < %d; %s = %s + 1) {", iv, iv, a.size, iv, iv))
		g.depth++
		g.line(fmt.Sprintf("%s[%s] = %s * %d + %d;", a.name, iv, iv, 1+g.rng.Intn(7), g.rng.Intn(13)))
		g.depth--
		g.line("}")
	}
	g.block(4 + g.rng.Intn(6))
	// Fold all state into the result.
	acc := g.fresh()
	g.line("int " + acc + " = 0;")
	for _, a := range g.arrays {
		iv := g.fresh()
		g.line(fmt.Sprintf("for (int %s = 0; %s < %d; %s = %s + 1) {", iv, iv, a.size, iv, iv))
		g.depth++
		g.line(fmt.Sprintf("%s = (%s * 31 + %s[%s]) & 1073741823;", acc, acc, a.name, iv))
		g.depth--
		g.line("}")
	}
	for _, s := range g.scals {
		g.line(fmt.Sprintf("%s = (%s * 17 + %s) & 1073741823;", acc, acc, s))
	}
	for _, l := range g.locals {
		g.line(fmt.Sprintf("%s = (%s ^ %s) & 1073741823;", acc, acc, l))
	}
	g.line("return " + acc + ";")
	g.sb.WriteString("}\n")
}

func (g *generator) fresh() string {
	g.nvars++
	return fmt.Sprintf("v%d", g.nvars)
}

func (g *generator) line(s string) {
	g.sb.WriteString(strings.Repeat("\t", g.depth))
	g.sb.WriteString(s)
	g.sb.WriteString("\n")
}

// block emits n statements at the current depth.
func (g *generator) block(n int) {
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

func (g *generator) stmt() {
	switch r := g.rng.Intn(10); {
	case r < 3: // declaration
		v := g.fresh()
		g.line(fmt.Sprintf("int %s = %s;", v, g.expr(2)))
		g.locals = append(g.locals, v)
	case r < 5 && len(g.locals) > 0: // assignment
		v := g.locals[g.rng.Intn(len(g.locals))]
		if g.protected[v] {
			v = g.fresh()
			g.line(fmt.Sprintf("int %s = %s;", v, g.expr(3)))
			g.locals = append(g.locals, v)
			return
		}
		g.line(fmt.Sprintf("%s = %s;", v, g.expr(3)))
	case r < 6 && len(g.arrays) > 0: // array store (masked index: always in range)
		a := g.arrays[g.rng.Intn(len(g.arrays))]
		g.line(fmt.Sprintf("%s[(%s) & %d] = %s;", a.name, g.expr(2), a.size-1, g.expr(2)))
	case r < 8 && g.depth < 4: // if/else
		mark := len(g.locals)
		g.line(fmt.Sprintf("if (%s) {", g.expr(2)))
		g.depth++
		g.block(1 + g.rng.Intn(2))
		g.depth--
		g.locals = g.locals[:mark] // then-branch locals go out of scope
		if g.rng.Intn(2) == 0 {
			g.line("} else {")
			g.depth++
			g.block(1 + g.rng.Intn(2))
			g.depth--
			g.locals = g.locals[:mark]
		}
		g.line("}")
	case r < 9 && g.depth < 3 && g.loops < 6: // bounded for loop
		g.loops++
		mark := len(g.locals)
		iv := g.fresh()
		trip := 1 + g.rng.Intn(16)
		g.line(fmt.Sprintf("for (int %s = 0; %s < %d; %s = %s + 1) {", iv, iv, trip, iv, iv))
		g.depth++
		g.inLoop++
		g.locals = append(g.locals, iv)
		if g.protected == nil {
			g.protected = map[string]bool{}
		}
		g.protected[iv] = true
		g.block(1 + g.rng.Intn(3))
		delete(g.protected, iv)
		g.locals = g.locals[:mark]
		g.inLoop--
		g.depth--
		g.line("}")
	default:
		if len(g.scals) > 0 {
			s := g.scals[g.rng.Intn(len(g.scals))]
			g.line(fmt.Sprintf("%s = %s;", s, g.expr(2)))
		} else {
			v := g.fresh()
			g.line(fmt.Sprintf("int %s = %s;", v, g.expr(2)))
			g.locals = append(g.locals, v)
		}
	}
}

// expr generates an expression of bounded depth.
func (g *generator) expr(depth int) string {
	if depth <= 0 {
		return g.atom()
	}
	switch g.rng.Intn(8) {
	case 0:
		return g.atom()
	case 1: // unary
		return "-(" + g.expr(depth-1) + ")"
	case 2:
		if len(g.arrays) > 0 {
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			return fmt.Sprintf("%s[(%s) & %d]", a.name, g.expr(depth-1), a.size-1)
		}
		return g.atom()
	case 3:
		if len(g.funcs) > 0 && g.inLoop == 0 {
			f := g.funcs[g.rng.Intn(len(g.funcs))]
			var args []string
			for i := 0; i < f.params; i++ {
				args = append(args, g.expr(depth-1))
			}
			return fmt.Sprintf("%s(%s)", f.name, strings.Join(args, ", "))
		}
		return g.atom()
	default:
		ops := []string{"+", "-", "*", "&", "|", "^", "<", "<=", "==", "!=", ">>", "<<"}
		op := ops[g.rng.Intn(len(ops))]
		l, r := g.expr(depth-1), g.expr(depth-1)
		if op == "<<" || op == ">>" {
			// Bounded shift counts keep results portable.
			return fmt.Sprintf("((%s) %s (%d))", l, op, g.rng.Intn(8))
		}
		if op == "*" {
			// Keep magnitudes bounded to avoid overflow-dependent results
			// (Go and MiniC both wrap, so this is just hygiene).
			return fmt.Sprintf("((%s) %s (%s & 255))", l, op, r)
		}
		return fmt.Sprintf("((%s) %s (%s))", l, op, r)
	}
}

func (g *generator) atom() string {
	choices := g.rng.Intn(3)
	switch {
	case choices == 0 && len(g.locals) > 0:
		return g.locals[g.rng.Intn(len(g.locals))]
	case choices == 1 && len(g.scals) > 0:
		return g.scals[g.rng.Intn(len(g.scals))]
	default:
		return fmt.Sprintf("%d", g.rng.Intn(200)-100)
	}
}
