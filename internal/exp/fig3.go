package exp

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/doe"
	"repro/internal/farm"
	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig3Cell is one (unroll factor, icache size) measurement of art.
type Fig3Cell struct {
	UnrollTimes int // 1 means unrolling disabled
	ICacheKB    int
	Cycles      float64
}

// Fig3Result carries the sweep and the linear-model fit the paper uses to
// show that a global linear approximation mispredicts the non-monotone
// unrolling response.
type Fig3Result struct {
	Cells []Fig3Cell
	// LinearPred8KB maps unroll factor to the linear model's prediction
	// at the 8KB instruction cache, fitted on the whole sweep.
	LinearPred8KB map[int]float64
}

// Fig3 reproduces Figure 3: execution time of art for different maximum
// unroll factors and instruction cache sizes, plus a linear approximation
// for the 8KB icache. Unroll factor 1 denotes -funroll-loops off.
func (h *Harness) Fig3() (string, *Fig3Result, error) {
	w := workloads.MustGet("179.art", workloads.Train)
	factors := []int{1, 2, 4, 6, 8, 10, 12}
	icaches := []int{8, 16, 32, 64, 128}

	base := sim.DefaultConfig()
	sweepPoint := func(uf, ic int) doe.Point {
		cfg := base
		cfg.ICacheKB = ic
		opts := compiler.O2()
		if uf > 1 {
			opts.UnrollLoops = true
			opts.MaxUnrollTimes = uf
		}
		// Clamp heuristics into the modeled space (O2 defaults are
		// in range already; unroll factor is the swept variable).
		return doe.JoinPoint(doe.FromOptions(opts), doe.FromConfig(cfg))
	}

	// The whole sweep is one batch: the farm runs it in parallel and answers
	// in sweep order.
	res := &Fig3Result{LinearPred8KB: map[int]float64{}}
	var jobs []farm.Job
	for _, ic := range icaches {
		for _, uf := range factors {
			jobs = append(jobs, farm.Job{Workload: w, Point: sweepPoint(uf, ic)})
			res.Cells = append(res.Cells, Fig3Cell{UnrollTimes: uf, ICacheKB: ic})
		}
	}
	measured, err := h.measureAll("fig3", jobs)
	if err != nil {
		return "", nil, err
	}
	for i := range res.Cells {
		res.Cells[i].Cycles = measured[i].Cycles
	}

	// Fit a simple linear model cycles ~ b0 + b1*uf + b2*log2(icache) on
	// the sweep, and report its 8KB predictions.
	rows := make([][]float64, len(res.Cells))
	ys := make([]float64, len(res.Cells))
	for i, c := range res.Cells {
		rows[i] = []float64{1, float64(c.UnrollTimes), log2f(c.ICacheKB)}
		ys[i] = c.Cycles
	}
	coef, err := linalg.LeastSquares(linalg.FromRows(rows), ys)
	if err != nil {
		return "", nil, err
	}
	for _, uf := range factors {
		res.LinearPred8KB[uf] = coef[0] + coef[1]*float64(uf) + coef[2]*log2f(8)
	}

	t := newTable("Figure 3: art execution time (Mcycles) vs max unroll factor and icache size")
	hdr := []string{"unroll \\ icache"}
	for _, ic := range icaches {
		hdr = append(hdr, fmt.Sprintf("%dKB", ic))
	}
	hdr = append(hdr, "linear@8KB")
	t.row(hdr...)
	for _, uf := range factors {
		cells := []string{fmt.Sprint(uf)}
		for _, ic := range icaches {
			for _, c := range res.Cells {
				if c.UnrollTimes == uf && c.ICacheKB == ic {
					cells = append(cells, f2(c.Cycles/1e6))
				}
			}
		}
		cells = append(cells, f2(res.LinearPred8KB[uf]/1e6))
		t.row(cells...)
	}
	h.checkpoint()
	return t.String(), res, nil
}

func log2f(v int) float64 {
	f := 0.0
	for x := v; x > 1; x >>= 1 {
		f++
	}
	return f
}
