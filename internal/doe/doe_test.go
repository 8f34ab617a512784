package doe

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/sim"
)

// Code maps a raw value to the coded scale [-1, 1] (log-transformed first
// for LogInt variables), as the paper prescribes for all parameters: the
// oracle that Space.CodeInto's per-space constants are held to bit for bit.
func (v Var) Code(raw int64) float64 {
	var x, lo, hi float64
	switch v.Kind {
	case LogInt:
		x, lo, hi = math.Log2(float64(raw)), math.Log2(float64(v.Low)), math.Log2(float64(v.High))
	default:
		x, lo, hi = float64(raw), float64(v.Low), float64(v.High)
	}
	if hi == lo {
		return 0
	}
	return 2*(x-lo)/(hi-lo) - 1
}

// decode snaps coded coordinates back to the nearest raw levels: the inverse
// of Space.Code that the round-trip test checks it against.
func decode(s *Space, coded []float64) Point {
	out := make(Point, len(s.Vars))
	for i, v := range s.Vars {
		best, bestD := int64(0), math.Inf(1)
		for _, lv := range v.LevelValues() {
			if d := math.Abs(v.Code(lv) - coded[i]); d < bestD {
				best, bestD = lv, d
			}
		}
		out[i] = best
	}
	return out
}

// varIndex returns the position of the named variable in s, or -1.
func varIndex(s *Space, name string) int {
	for i, v := range s.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

func TestSpacesMatchPaperTables(t *testing.T) {
	cs := &Space{Vars: CompilerVars()}
	if cs.NumVars() != 14 {
		t.Fatalf("Table 1 has 14 parameters, got %d", cs.NumVars())
	}
	ms := MicroarchSpace()
	if ms.NumVars() != 11 {
		t.Fatalf("Table 2 has 11 parameters, got %d", ms.NumVars())
	}
	js := JointSpace()
	if js.NumVars() != 25 {
		t.Fatalf("joint space should have 25 vars, got %d", js.NumVars())
	}
	if NumCompilerVars != 14 {
		t.Fatal("NumCompilerVars")
	}
	// Spot-check levels against the paper.
	checks := map[string]int{
		"max-inline-insns-auto": 11,
		"inline-call-cost":      9,
		"max-unroll-times":      9,
		"max-unrolled-insns":    21,
		"bpred-size":            5,
		"l2-kb":                 6,
		"mem-lat":               21,
		"dcache-lat":            3,
	}
	for name, want := range checks {
		i := varIndex(js, name)
		if i < 0 {
			t.Errorf("missing var %s", name)
			continue
		}
		if got := len(js.Vars[i].LevelValues()); got != want {
			t.Errorf("%s: %d levels, want %d", name, got, want)
		}
	}
}

func TestLogIntLevelsArePowersOfTwo(t *testing.T) {
	v := Var{Name: "bpred", Kind: LogInt, Low: 512, High: 8192, Levels: 5}
	want := []int64{512, 1024, 2048, 4096, 8192}
	got := v.LevelValues()
	if len(got) != len(want) {
		t.Fatalf("levels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("levels = %v, want %v", got, want)
		}
	}
}

func TestCodeDecodeRoundTrip(t *testing.T) {
	s := JointSpace()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := s.RandomPoint(rng)
		if err := s.Validate(p); err != nil {
			t.Fatal(err)
		}
		coded := s.Code(p)
		for _, c := range coded {
			if c < -1.0001 || c > 1.0001 {
				t.Fatalf("coded value %v out of [-1,1]", c)
			}
		}
		back := decode(s, coded)
		for i := range p {
			if back[i] != p[i] {
				t.Fatalf("round trip failed at %s: %d -> %d",
					s.Vars[i].Name, p[i], back[i])
			}
		}
	}
}

// TestCodeIntoMatchesVarCode holds CodeInto, which codes from per-space
// constants, to Var.Code bit for bit: every raw value in [Low, High] of every
// joint-space variable, and variables the paper's spaces lack — log bounds
// that are not powers of two, and bounds that coincide.
func TestCodeIntoMatchesVarCode(t *testing.T) {
	odd := &Space{Vars: []Var{
		{Name: "log-odd", Kind: LogInt, Low: 3, High: 100, Levels: 4},
		{Name: "log-fixed", Kind: LogInt, Low: 6, High: 6, Levels: 1},
		{Name: "int-fixed", Kind: Int, Low: 7, High: 7, Levels: 1},
		{Name: "int-wide", Kind: Int, Low: -1 << 40, High: 1<<40 + 3, Levels: 3},
	}}
	for _, s := range []*Space{JointSpace(), odd} {
		p := make(Point, len(s.Vars))
		for i, v := range s.Vars {
			p[i] = v.Low
		}
		var dst []float64
		for i, v := range s.Vars {
			lo, hi := v.Low, v.High
			if hi-lo > 10000 {
				hi = lo + 10000 // and the top of the range below
			}
			check := func(raw int64) {
				p[i] = raw
				dst = s.CodeInto(p, dst)
				if want := v.Code(raw); math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("%s = %d: CodeInto gives %v, Var.Code %v", v.Name, raw, dst[i], want)
				}
			}
			for raw := lo; raw <= hi; raw++ {
				check(raw)
			}
			for raw := max(hi+1, v.High-10000); raw <= v.High; raw++ {
				check(raw)
			}
			p[i] = v.Low
		}
	}
}

// TestCodeIntoConcurrentFirstUse: a space's coding constants are built on
// first use, which may come from several goroutines at once (the service
// predicts on one shared space per artifact); every one of them must code
// as Var.Code does.
func TestCodeIntoConcurrentFirstUse(t *testing.T) {
	s := JointSpace()
	p := s.RandomPoint(rand.New(rand.NewSource(5)))
	want := make([]float64, len(p))
	for i, v := range s.Vars {
		want[i] = v.Code(p[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range s.Code(p) {
				if math.Float64bits(x) != math.Float64bits(want[i]) {
					t.Errorf("%s: %v, want %v", s.Vars[i].Name, x, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestValidateBoundsFlags: a flag is 0 or 1. Any other value used to pass
// when it was below the range, and then coded to a value far outside [-1, 1]
// and compiled as "on".
func TestValidateBoundsFlags(t *testing.T) {
	s := JointSpace()
	p := s.RandomPoint(rand.New(rand.NewSource(3)))
	i := varIndex(s, "finline-functions")
	for _, v := range []int64{0, 1} {
		p[i] = v
		if err := s.Validate(p); err != nil {
			t.Fatalf("flag = %d: %v", v, err)
		}
	}
	for _, v := range []int64{-7, -1, 2} {
		p[i] = v
		if err := s.Validate(p); err == nil {
			t.Fatalf("flag = %d passed validation", v)
		}
	}
}

// TestParsePoint: the JSON array /v1/measure takes, one integer per joint
// variable, with no Table 1/2 box check (the build's own caps refuse what
// cannot be built). CI's $PT is -O2 on the typical configuration.
func TestParsePoint(t *testing.T) {
	const pt = "[0,0,1,1,1,1,1,1,0,100,50,16,8,200,4,2048,64,32,32,1,2,1024,4,10,100]"
	o2Typical := JoinPoint(FromOptions(compiler.O2()), FromConfig(sim.DefaultConfig()))
	outOfBox := strings.Replace(pt, ",100]", ",1000]", 1) // mem-lat 1000 > 150
	for _, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"CI's $PT", pt, true},
		{"out of the box", outOfBox, true},
		{"24 values", strings.Replace(pt, "0,0,", "0,", 1), false},
		{"a fraction", strings.Replace(pt, "100]", "100.5]", 1), false},
		{"null", "null", false},
		{"trailing bytes", pt + "]", false},
	} {
		p, err := ParsePoint(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("%s: ParsePoint(%s) = %v, %v", tc.name, tc.in, p, err)
		}
	}
	if p, _ := ParsePoint(pt); !slices.Equal(p, o2Typical) {
		t.Errorf("$PT = %v, want -O2 on typical %v", p, o2Typical)
	}
	if p, _ := ParsePoint(outOfBox); JointSpace().Validate(p) == nil {
		t.Errorf("mem-lat 1000 is inside the box")
	}
}

func TestPropertyCodeBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := JointSpace()
		p := s.RandomPoint(rng)
		for _, c := range s.Code(p) {
			if math.IsNaN(c) || c < -1 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatinHypercubeCoverage(t *testing.T) {
	s := &Space{Vars: []Var{
		{Name: "a", Kind: Int, Low: 0, High: 9, Levels: 10},
		{Name: "b", Kind: Flag, Low: 0, High: 1, Levels: 2},
	}}
	rng := rand.New(rand.NewSource(3))
	pts := s.LatinHypercube(10, rng)
	// Dimension a must cover all 10 levels exactly once.
	seen := map[int64]int{}
	ones := 0
	for _, p := range pts {
		seen[p[0]]++
		if p[1] == 1 {
			ones++
		}
	}
	if len(seen) != 10 {
		t.Errorf("LHS should cover all levels; saw %d distinct", len(seen))
	}
	// Dimension b should be balanced.
	if ones != 5 {
		t.Errorf("flag should be balanced: %d ones of 10", ones)
	}
}

func TestDOptimalBeatsRandom(t *testing.T) {
	s := MicroarchSpace()
	rng := rand.New(rand.NewSource(11))
	n := 24
	des := DOptimal(s, n, rng, DOptions{Expansion: ExpandLinear})
	if len(des.Points) != n {
		t.Fatalf("design size %d, want %d", len(des.Points), n)
	}
	dOptDet := des.logDet()

	// Average random designs of the same size.
	sum, trials := 0.0, 10
	for i := 0; i < trials; i++ {
		r := &Design{Space: s, Expansion: ExpandLinear}
		for j := 0; j < n; j++ {
			r.Points = append(r.Points, s.RandomPoint(rng))
		}
		sum += r.logDet()
	}
	randDet := sum / float64(trials)
	if dOptDet <= randDet {
		t.Errorf("D-optimal logdet %.2f should beat random %.2f", dOptDet, randDet)
	}
	t.Logf("logdet: d-optimal=%.2f random=%.2f", dOptDet, randDet)
}

func TestDOptimalDeterministic(t *testing.T) {
	s := &Space{Vars: CompilerVars()}
	a := DOptimal(s, 20, rand.New(rand.NewSource(5)), DOptions{Expansion: ExpandLinear})
	b := DOptimal(s, 20, rand.New(rand.NewSource(5)), DOptions{Expansion: ExpandLinear})
	for i := range a.Points {
		for j := range a.Points[i] {
			if a.Points[i][j] != b.Points[i][j] {
				t.Fatal("same seed must give the same design")
			}
		}
	}
}

func TestAugmentKeepsExistingPoints(t *testing.T) {
	s := MicroarchSpace()
	rng := rand.New(rand.NewSource(13))
	base := DOptimal(s, 15, rng, DOptions{Expansion: ExpandLinear})
	aug := AugmentDOptimal(s, base.Points, 10, rng, DOptions{Expansion: ExpandLinear})
	if len(aug.Points) != 25 {
		t.Fatalf("augmented size %d, want 25", len(aug.Points))
	}
	for i, p := range base.Points {
		for j := range p {
			if aug.Points[i][j] != p[j] {
				t.Fatal("augmentation must preserve existing points")
			}
		}
	}
	if aug.logDet() <= base.logDet() {
		t.Error("adding points should increase information")
	}
}

func TestExpansionTerms(t *testing.T) {
	coded := []float64{0.5, -1, 1}
	lin := ExpandCoded(coded, ExpandLinear)
	if len(lin) != 4 || lin[0] != 1 || lin[2] != -1 {
		t.Fatalf("linear expansion = %v", lin)
	}
	inter := ExpandCoded(coded, ExpandInteractions)
	if len(inter) != ExpandInteractions.NumTerms(3) || len(inter) != 7 {
		t.Fatalf("interaction expansion = %v", inter)
	}
	// x0*x1 = -0.5, x0*x2 = 0.5, x1*x2 = -1
	if inter[4] != -0.5 || inter[5] != 0.5 || inter[6] != -1 {
		t.Fatalf("interaction terms = %v", inter[4:])
	}
}

func TestOptionConfigConversions(t *testing.T) {
	js := JointSpace()
	rng := rand.New(rand.NewSource(21))
	p := js.RandomPoint(rng)
	opts := ToOptions(p, 4)
	cfg := ToConfig(p)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("decoded config invalid: %v", err)
	}
	// Round trip.
	back := JoinPoint(FromOptions(opts), FromConfig(cfg))
	for i := range p {
		if back[i] != p[i] {
			t.Fatalf("round trip failed at %s: %d -> %d", js.Vars[i].Name, p[i], back[i])
		}
	}
	// Spot-check known mappings.
	o2 := compiler.O2()
	comp := FromOptions(o2)
	if comp[0] != 0 || comp[2] != 1 || comp[6] != 1 {
		t.Errorf("FromOptions(O2) = %v", comp)
	}
	def := sim.DefaultConfig()
	m := FromConfig(def)
	if m[0] != 4 || m[1] != 2048 {
		t.Errorf("FromConfig(default) = %v", m)
	}
}
