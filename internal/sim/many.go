package sim

import "repro/internal/isa"

// maxConsumers bounds how many timing consumers share one Trace pass.
// Each consumer owns a full CPU (caches, predictor, rings); past a point
// more consumers per pass costs cache footprint without saving functional
// work, so very large batches run in rounds.
const maxConsumers = 16

// SimulateMany runs prog to completion under each configuration, sharing
// one functional interpretation across all of them: the committed trace is
// broadcast in chunks to one timing consumer per config, each owning its
// own caches, branch predictor and energy accumulators. Results are
// bit-for-bit identical to len(cfgs) independent Simulate calls — the
// functional stream does not depend on the configuration — at roughly
// 1/len(cfgs) of the interpretation cost. Batches larger than maxConsumers
// run in rounds; a round of one is a plain Simulate.
func SimulateMany(prog *isa.Program, cfgs []Config, maxInstrs int64) ([]Stats, error) {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]Stats, len(cfgs))
	for lo := 0; lo < len(cfgs); lo += maxConsumers {
		hi := min(lo+maxConsumers, len(cfgs))
		if hi-lo == 1 {
			st, err := Simulate(prog, cfgs[lo], maxInstrs)
			if err != nil {
				return nil, err
			}
			out[lo] = st
			continue
		}
		if err := simulateRound(prog, cfgs[lo:hi], maxInstrs, out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simulateRound runs one Trace pass: a single functional interpretation of
// prog feeding len(cfgs) timing consumers.
func simulateRound(prog *isa.Program, cfgs []Config, maxInstrs int64, out []Stats) error {
	exe := NewExecutor(prog)
	cpus := make([]*CPU, len(cfgs))
	consumers := make([]func([]TraceEntry), len(cfgs))
	for k := range cpus {
		cpu := NewCPU(cfgs[k])
		cpus[k] = cpu
		consumers[k] = func(ents []TraceEntry) { cpu.FeedChunk(exe.dec, ents) }
	}
	if err := exe.Trace(maxInstrs, consumers...); err != nil {
		return err
	}
	exit := exe.Regs[isa.RegRV]
	for k, cpu := range cpus {
		st := cpu.Stats()
		st.ExitValue = exit
		out[k] = st
	}
	return nil
}
