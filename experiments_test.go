package repro_test

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestExperimentsTablesMatchReport holds EXPERIMENTS.md's hand-written
// numbers to report-paper.json at the precision they are printed (%.2f): the
// "ours" columns of Table 3 (average row included) and every cell of the
// Figure 3 table, in Mcycles. Table 3 rows are matched by benchmark name, the
// part before the first "-" (the doc writes 177.mesa for 177.mesa-train). A
// change that moves the report must move the prose tables with it.
func TestExperimentsTablesMatchReport(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("report-paper.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep exp.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Table3) == 0 || rep.Fig3 == nil {
		t.Fatal("report-paper.json has no Table 3 or Figure 3")
	}
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }

	want := map[string][]string{} // benchmark → ours linear, MARS, RBF-RT
	var sum [3]float64
	for _, r := range rep.Table3 {
		bench, _, _ := strings.Cut(r.Program, "-")
		want[bench] = []string{f2(r.Linear), f2(r.MARS), f2(r.RBF)}
		sum[0], sum[1], sum[2] = sum[0]+r.Linear, sum[1]+r.MARS, sum[2]+r.RBF
	}
	n := float64(len(rep.Table3))
	want["Average"] = []string{f2(sum[0] / n), f2(sum[1] / n), f2(sum[2] / n)}
	rows := docTable(t, string(doc), "## Table 3 ")
	for _, row := range rows {
		bench, _, _ := strings.Cut(row[0], "-")
		w, ok := want[bench]
		if !ok {
			t.Errorf("Table 3 row %q names no program of the report", row[0])
			continue
		}
		delete(want, bench)
		if got := row[len(row)-3:]; !slices.Equal(got, w) {
			t.Errorf("Table 3 %s: ours %v, report %v", row[0], got, w)
		}
	}
	for bench := range want {
		t.Errorf("Table 3 has no row for %s", bench)
	}

	cycles := map[[2]int]float64{}
	for _, c := range rep.Fig3.Cells {
		cycles[[2]int{c.UnrollTimes, c.ICacheKB}] = c.Cycles
	}
	rows = docTable(t, string(doc), "## Figure 3 ")
	if len(rows) != len(rep.Fig3.LinearPred8KB) {
		t.Errorf("Figure 3 table has %d rows, the report %d unroll factors", len(rows), len(rep.Fig3.LinearPred8KB))
	}
	icache := []int{8, 16, 32, 64, 128}
	for _, row := range rows {
		uf, err := strconv.Atoi(row[0])
		if err != nil || len(row) != 2+len(icache) {
			t.Errorf("Figure 3 row %v: want an unroll factor, %d icache cells and linear@8KB", row, len(icache))
			continue
		}
		var w []string
		for _, kb := range icache {
			w = append(w, f2(cycles[[2]int{uf, kb}]/1e6))
		}
		w = append(w, f2(rep.Fig3.LinearPred8KB[uf]/1e6))
		if !slices.Equal(row[1:], w) {
			t.Errorf("Figure 3 unroll %d: doc %v, report %v", uf, row[1:], w)
		}
	}
}

// docTable returns the body rows of the first table under the heading that
// starts with heading, one slice of trimmed cells per row, bold marks removed.
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	var rows [][]string
	header := 0
	for _, line := range strings.Split(doc[i+1:], "\n")[1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			if header > 0 {
				break
			}
			continue
		}
		if header++; header <= 2 { // the column names and the |---| rule
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "*"))
		}
		rows = append(rows, cells)
	}
	if len(rows) == 0 {
		t.Fatalf("EXPERIMENTS.md's %q section has no table", heading)
	}
	return rows
}
