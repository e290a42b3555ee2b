package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fabricate builds a minimal but well-formed report so the renderer can
// be tested without an hour-long run.
func fabricate() *Report {
	mkCmp := func(title string, rows []string, metric Metric) *Comparison {
		c := &Comparison{Title: title, Metric: metric, Cols: PaperColumns, Rows: rows}
		c.Cells = make([][]CellTA, len(rows))
		for i := range rows {
			c.Cells[i] = make([]CellTA, len(PaperColumns))
			for j := range c.Cells[i] {
				c.Cells[i][j] = CellTA{TimeS: float64(i+1) * 0.1, AccPct: 99}
			}
		}
		return c
	}
	t1 := mkCmp("Table I", []string{"RazerS3", "Hobbes3", "Yara", "BWA-MEM", "GEM", "CORAL-cpu", "REPUTE-cpu"}, MetricAll)
	t2 := mkCmp("Table II", []string{"RazerS3", "Hobbes3", "Yara", "BWA-MEM", "GEM", "CORAL-all", "REPUTE-all"}, MetricAnyBest)
	t3 := mkCmp("Table III", []string{"RazerS3", "Hobbes3", "CORAL-HiKey", "REPUTE-HiKey"}, MetricAnyBest)
	t4 := &EnergyTable{
		Cols: EnergyColumns,
		Sections: []EnergySection{
			{System: "System 1", IdleW: 160, Rows: []string{"REPUTE-all"},
				Cells: [][]EnergyCell{{{PowerW: 450, EnergyJ: 1500, TimeS: 5}, {PowerW: 460, EnergyJ: 2500, TimeS: 8}}}},
			{System: "System 2", IdleW: 3.5, Rows: []string{"REPUTE-HiKey"},
				Cells: [][]EnergyCell{{{PowerW: 8, EnergyJ: 80, TimeS: 17}, {PowerW: 8, EnergyJ: 210, TimeS: 50}}}},
		},
	}
	f3 := &Series{Title: "Fig. 3", XLabel: "reads per GPU",
		Points: []SeriesPoint{{X: 0, TimeS: 5, Label: "0"}, {X: 100, TimeS: 3, Label: "100"}, {X: 200, TimeS: 4, Label: "200"}}}
	f4 := &Series{Title: "Fig. 4", XLabel: "Smin",
		Points: []SeriesPoint{{X: 8, TimeS: 4, Label: "Smin=8"}, {X: 12, TimeS: 3, Label: "Smin=12"}, {X: 20, TimeS: 5, Label: "Smin=20"}}}
	return &Report{
		Scale: Tiny, Seed: 1, Started: time.Now(), Duration: time.Minute,
		T1: t1, T2: t2, T3: t3, T4: t4, F3: f3, F4: f4,
	}
}

func TestWriteMarkdownStructure(t *testing.T) {
	r := fabricate()
	var buf bytes.Buffer
	r.WriteMarkdown(&buf)
	out := buf.String()
	for _, want := range []string{
		"# EXPERIMENTS — paper vs measured",
		"### Table I",
		"### Table II",
		"### Table III",
		"### Table IV",
		"Fig. 3",
		"Fig. 4",
		"## Shape checks",
		"REPUTE-cpu", "REPUTE-HiKey",
		"simulated seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Paper numbers must appear alongside measured ones (italicised).
	if !strings.Contains(out, "_26.7 / 100.0_") {
		t.Errorf("paper Table I numbers not embedded:\n%s", out[:min(2000, len(out))])
	}
}

func TestShapeChecksOnFabricatedReport(t *testing.T) {
	r := fabricate()
	checks := CheckShapes(r.T1, r.T2, r.T3, r.T4, r.F3, r.F4)
	if len(checks) < 10 {
		t.Fatalf("only %d checks", len(checks))
	}
	byName := map[string]ShapeCheck{}
	for _, c := range checks {
		byName[c.Name] = c
	}
	// The fabricated figures have interior minima: those checks pass.
	for name, c := range byName {
		if strings.HasPrefix(name, "F3:") && !c.Pass {
			t.Errorf("F3 check failed on interior-minimum series: %+v", c)
		}
		if strings.HasPrefix(name, "F4:") && !c.Pass {
			t.Errorf("F4 check failed on interior-minimum series: %+v", c)
		}
	}
	// Energy ratio 2500/210 ≈ 12x: the embedded-energy check passes.
	for name, c := range byName {
		if strings.Contains(name, "order of magnitude of energy") && !c.Pass {
			t.Errorf("energy check failed: %+v", c)
		}
	}
}

func TestWriteJSONStructure(t *testing.T) {
	r := fabricate()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := jsonUnmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	tables, ok := decoded["tables"].([]any)
	if !ok || len(tables) != 3 {
		t.Fatalf("tables = %v", decoded["tables"])
	}
	if decoded["energy"] == nil {
		t.Error("energy section missing")
	}
	figs, ok := decoded["figures"].([]any)
	if !ok || len(figs) != 2 {
		t.Errorf("figures = %v", decoded["figures"])
	}
	if checks, ok := decoded["shape_checks"].([]any); !ok || len(checks) < 10 {
		t.Errorf("shape_checks = %v", decoded["shape_checks"])
	}
}

// TestWriteJSONFile pins the committed BENCH_*.json format: two-space
// indentation and a trailing newline, with Report reshaped exactly as
// its WriteJSON shapes it.
func TestWriteJSONFile(t *testing.T) {
	dir := t.TempDir()
	rowsPath := filepath.Join(dir, "rows.json")
	b := &PrefilterBench{Rows: []PrefilterRow{{Selector: "uniform", Delta: 2}}}
	if err := WriteJSONFile(rowsPath, b); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Errorf("WriteJSONFile wrote\n%s\nwant\n%s", got, want)
	}

	reportPath := filepath.Join(dir, "report.json")
	r := fabricate()
	if err := WriteJSONFile(reportPath, r); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("WriteJSONFile and Report.WriteJSON disagree")
	}
}

func jsonUnmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
