package features

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// golden pins the raw feature vector of every seed workload at the fixed
// -O3 reference compilation. A diff here means a compiler pass, the
// reference options or the extraction pipeline changed semantically — which
// silently shifts features and invalidates every persisted cross-model —
// so the change must be deliberate and SchemaVersion must be bumped
// alongside regenerating these rows.
var golden = map[string]Vector{
	"164.gzip":   {8.430452551665532, 7.562242424221073, 0.6276595744680851, 0.11702127659574468, 0.11702127659574468, 0.05319148936170213, 0, 7.230769230769231, 4.906890595608519, 2.321928094887362, 3, 0.31382978723404253, 0.4148936170212766, 0.10638297872340426, 0.16489361702127658, 14.807455552967623, 20.931569290671515, 0.219816, 0.0462675, 0.0798125, 0.5599060297572436, 0.8261166137697377, 0.081303, 5.754887502163468},
	"175.vpr":    {8.879583249612784, 8.154818109052105, 0.5774647887323944, 0.11971830985915492, 0.11619718309859155, 0.08098591549295775, 0.0035211267605633804, 5.461538461538462, 4.700439718141092, 2.807354922057604, 2, 0.2852112676056338, 0.31338028169014087, 0.4014084507042254, 0, 12.322491537597468, 20.931569290671515, 0.1802095, 0.050305, 0.1365745, 0.507316519555261, 0.7817707779770904, 0.055223, 3.700439718141092},
	"177.mesa":   {9.328674927327947, 8.257387842692651, 0.639344262295082, 0.12786885245901639, 0.08852459016393442, 0.06229508196721312, 0, 6.931818181818182, 6.321928094887363, 2.584962500721156, 3, 0.1901639344262295, 0.6032786885245902, 0.06885245901639345, 0.1377049180327869, 13.0003521774803, 20.360032595582155, 0.1516095642811445, 0.024641867024719145, 0.1461288052673542, 0.35495271026136477, 0.8601891239001851, 0.04331107394194824, 4.247927513443585},
	"179.art":    {8.665335917185176, 7.930737337562887, 0.6625514403292181, 0.1111111111111111, 0.11934156378600823, 0.037037037037037035, 0, 9.346153846153847, 5.321928094887363, 3, 3, 0.29218106995884774, 0.2551440329218107, 0.3662551440329218, 0.08641975308641975, 12.055960234452295, 20.931569290671515, 0.1832935, 0.008067, 0.0435845, 0.008064793676651104, 0.9578439646635538, 0.088943, 3.4594316186372973},
	"181.mcf":    {8.228818690495881, 7.622051819456376, 0.6581632653061225, 0.09693877551020408, 0.15816326530612246, 0.025510204081632654, 0, 11.529411764705882, 5.426264754702098, 2.321928094887362, 2, 0.34183673469387754, 0.37244897959183676, 0.2857142857142857, 0, 16.169964136519173, 20.931569290671515, 0.2145845, 0.083192, 0.033403, 0.08939316827829835, 0.720622681776433, 0.0896375, 7.199672344836364},
	"255.vortex": {8.954196310386875, 7.960001932068081, 0.6290322580645161, 0.10483870967741936, 0.16129032258064516, 0.028225806451612902, 0, 9.538461538461538, 5.247927513443585, 2.321928094887362, 2, 0.5524193548387096, 0.3709677419354839, 0.07661290322580645, 0, 13.700764808097977, 20.460743843427473, 0.3635624068413689, 0.029537739163455416, 0.06524898084197732, 0.11693801042894617, 0.9248595059969962, 0.08423099390687983, 4.857980995127572},
	"256.bzip2":  {8.98299357469431, 8.076815597050832, 0.587360594795539, 0.12267657992565056, 0.12267657992565056, 0.055762081784386616, 0.0, 5.977777777777778, 4.321928094887363, 3.584962500721156, 4, 0.275092936802974, 0.3940520446096654, 0.14869888475836432, 0.1821561338289963, 11.171176797651771, 20.931569290671515, 0.172614, 0.0578815, 0.0755685, 0.283398505991253, 0.7488822992205921, 0.115526, 2.807354922057604},
}

func TestGoldenSeedWorkloadVectors(t *testing.T) {
	for _, name := range workloads.Names() {
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden row", name)
		}
		v, err := Extract(workloads.MustGet(name, workloads.Train))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(v) != NumFeatures() {
			t.Fatalf("%s: vector length %d, schema %d", name, len(v), NumFeatures())
		}
		for i := range v {
			if v[i] != want[i] {
				t.Errorf("%s: feature %q = %s, golden %s", name, Names()[i],
					strconv.FormatFloat(v[i], 'g', -1, 64),
					strconv.FormatFloat(want[i], 'g', -1, 64))
			}
		}
	}
}

func TestExtractDeterministicAcrossGoroutines(t *testing.T) {
	w := workloads.MustGet("179.art", workloads.Train)
	ClearCache()
	ref, err := Extract(w)
	if err != nil {
		t.Fatal(err)
	}
	const parallel = 8
	out := make([]Vector, parallel)
	var wg sync.WaitGroup
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ClearCache() // force concurrent recomputation, not cache hits
			v, err := Extract(w)
			if err != nil {
				t.Error(err)
				return
			}
			out[g] = v
		}(g)
	}
	wg.Wait()
	for g, v := range out {
		for i := range ref {
			if v[i] != ref[i] {
				t.Fatalf("goroutine %d: feature %d differs", g, i)
			}
		}
	}
}

func TestCacheCountsHitsAndMisses(t *testing.T) {
	ClearCache()
	w := workloads.MustGet("181.mcf", workloads.Train)
	h0, m0 := CacheStats()
	if _, err := Extract(w); err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(w); err != nil {
		t.Fatal(err)
	}
	h1, m1 := CacheStats()
	if m1-m0 < 1 {
		t.Errorf("first extraction must count a miss (misses %d -> %d)", m0, m1)
	}
	if h1-h0 < 1 {
		t.Errorf("second extraction must count a hit (hits %d -> %d)", h0, h1)
	}
}

// TestCacheIsBounded: the cache holds cacheSize programs, so after that many
// other distinct sources the first one is extracted again rather than kept
// forever.
func TestCacheIsBounded(t *testing.T) {
	ClearCache()
	src := func(i int) string { return fmt.Sprintf("int main() { return %d; }", i) }
	for i := 0; i <= cacheSize; i++ {
		if _, err := ExtractSource(src(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, m0 := CacheStats()
	if _, err := ExtractSource(src(0)); err != nil {
		t.Fatal(err)
	}
	if _, m1 := CacheStats(); m1 != m0+1 {
		t.Fatalf("after %d other sources the first was served from cache (misses %d -> %d)", cacheSize, m0, m1)
	}
}

func TestCodeClampsToUnitRange(t *testing.T) {
	v, err := Extract(workloads.MustGet("164.gzip", workloads.Train))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range v.Code() {
		if c < -1 || c > 1 {
			t.Errorf("coded feature %q = %g out of [-1, 1]", Names()[i], c)
		}
	}
}

func TestExtractSourceRejectsInvalidPrograms(t *testing.T) {
	if _, err := ExtractSource("int main( {"); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := ExtractSource("int main() { return nope; }"); err == nil {
		t.Error("check error must surface")
	}
}
