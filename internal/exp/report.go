package exp

import (
	"encoding/json"
	"os"

	"repro/internal/doe"
)

// Report is the machine-readable form of a full experiment run, written by
// `empirico -json`; downstream plotting needs no access to the Go API.
type Report struct {
	Scale    string                  `json:"scale"`
	Seed     int64                   `json:"seed"`
	Programs []string                `json:"programs"`
	Table3   []Table3Row             `json:"table3,omitempty"`
	Fig5     map[string][]Fig5Point  `json:"fig5,omitempty"`
	Fig6     map[string][]Fig6Pair   `json:"fig6,omitempty"`
	Table4   map[string][]Table4Cell `json:"table4,omitempty"`
	Search   []SearchJSON            `json:"table6,omitempty"`
	Fig7     []SpeedupRow            `json:"fig7,omitempty"`
	Table7   []Table7Row             `json:"table7,omitempty"`
	Fig3     *Fig3Result             `json:"fig3,omitempty"`
}

// SearchJSON is a JSON-friendly SearchResult (points as plain int64s).
type SearchJSON struct {
	Program   string  `json:"program"`
	Config    string  `json:"config"`
	Settings  []int64 `json:"settings"` // the 14 compiler values
	Predicted float64 `json:"predictedCycles"`
}

// NewReport initializes a report for a study.
func NewReport(s *Study) *Report {
	r := &Report{Scale: s.Harness.Scale.Name, Seed: s.Harness.Seed}
	for _, pd := range s.Programs {
		r.Programs = append(r.Programs, pd.Workload.Key())
	}
	return r
}

// AddSearch records GA results in JSON form.
func (r *Report) AddSearch(results []SearchResult) {
	for _, res := range results {
		r.Search = append(r.Search, SearchJSON{
			Program:   res.Program,
			Config:    res.Config,
			Settings:  append([]int64{}, res.Point[:doe.NumCompilerVars]...),
			Predicted: res.Predicted,
		})
	}
}

// Write marshals the report to path with indentation.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
