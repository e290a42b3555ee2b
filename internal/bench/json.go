package bench

import (
	"encoding/json"
	"io"
	"os"
)

// jsonReport mirrors Report with stable, exported field names for
// machine consumption (CI trend tracking, plotting).
type jsonReport struct {
	Scale   string           `json:"scale"`
	RefLen  int              `json:"ref_len"`
	Reads   int              `json:"reads_per_set"`
	Seed    int64            `json:"seed"`
	Tables  []jsonComparison `json:"tables"`
	Energy  *jsonEnergy      `json:"energy,omitempty"`
	Figures []jsonSeries     `json:"figures"`
	Checks  []jsonCheck      `json:"shape_checks"`
}

type jsonComparison struct {
	Title  string     `json:"title"`
	Metric string     `json:"metric"`
	Cols   []string   `json:"columns"`
	Rows   []string   `json:"rows"`
	Cells  [][]CellTA `json:"cells"`
}

type jsonEnergy struct {
	Cols     []string            `json:"columns"`
	Sections []jsonEnergySection `json:"sections"`
}

type jsonEnergySection struct {
	System string         `json:"system"`
	IdleW  float64        `json:"idle_watts"`
	Rows   []string       `json:"rows"`
	Cells  [][]EnergyCell `json:"cells"`
}

type jsonSeries struct {
	Title  string        `json:"title"`
	XLabel string        `json:"x_label"`
	Points []SeriesPoint `json:"points"`
}

type jsonCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSON emits the full report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error { return encodeJSON(w, r) }

// MarshalJSON reshapes the report into its stable machine-readable form.
func (r *Report) MarshalJSON() ([]byte, error) {
	out := jsonReport{
		Scale:  r.Scale.Name,
		RefLen: r.Scale.RefLen,
		Reads:  r.Scale.ReadsPerSet,
		Seed:   r.Seed,
	}
	colNames := func(cols []Column) []string {
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.String()
		}
		return names
	}
	for _, cmp := range []*Comparison{r.T1, r.T2, r.T3} {
		if cmp == nil {
			continue
		}
		out.Tables = append(out.Tables, jsonComparison{
			Title:  cmp.Title,
			Metric: cmp.Metric.String(),
			Cols:   colNames(cmp.Cols),
			Rows:   cmp.Rows,
			Cells:  cmp.Cells,
		})
	}
	if r.T4 != nil {
		je := &jsonEnergy{Cols: colNames(r.T4.Cols)}
		for _, sec := range r.T4.Sections {
			je.Sections = append(je.Sections, jsonEnergySection{
				System: sec.System, IdleW: sec.IdleW, Rows: sec.Rows, Cells: sec.Cells,
			})
		}
		out.Energy = je
	}
	for _, s := range []*Series{r.F3, r.F4} {
		if s == nil {
			continue
		}
		out.Figures = append(out.Figures, jsonSeries{Title: s.Title, XLabel: s.XLabel, Points: s.Points})
	}
	for _, c := range CheckShapes(r.T1, r.T2, r.T3, r.T4, r.F3, r.F4) {
		out.Checks = append(out.Checks, jsonCheck{Name: c.Name, Pass: c.Pass, Detail: c.Detail})
	}
	return json.Marshal(out)
}

// encodeJSON writes v as two-space-indented JSON with a trailing
// newline, the format of every committed BENCH_*.json file.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSONFile creates path and writes v into it as indented JSON.
func WriteJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = encodeJSON(f, v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
