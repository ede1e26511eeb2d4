package experiments

import (
	"fmt"
	"io"
	"math"

	"amdahlyd/internal/costmodel"
	"amdahlyd/internal/report"
)

// column is one quantity of a per-cell result: its table header, its CSV
// series name and its value. A table-only quantity has no CSV name, a
// CSV-only one no header; text, when set, replaces report.Fmt(value) in
// the table.
type column[C any] struct {
	header, csv string
	value       func(C) float64
	text        func(C) string
}

// renderTable writes one titled table with a row per cell, followed by a
// blank line.
func renderTable[C any](w io.Writer, title string, cols []column[C], cells []C) error {
	var headers []string
	for _, col := range cols {
		if col.header != "" {
			headers = append(headers, col.header)
		}
	}
	tb := report.NewTable(title, headers...)
	for _, c := range cells {
		row := make([]string, 0, len(headers))
		for _, col := range cols {
			switch {
			case col.header == "":
			case col.text != nil:
				row = append(row, col.text(c))
			default:
				row = append(row, report.Fmt(col.value(c)))
			}
		}
		if err := tb.AddRow(row...); err != nil {
			return err
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// writeColumnsCSV emits the cells in long form: one series per CSV
// column, x = the cell index.
func writeColumnsCSV[C any](w io.Writer, xLabel string, cols []column[C], cells []C) error {
	var series []report.Series
	for _, col := range cols {
		if col.csv == "" {
			continue
		}
		s := report.Series{Name: col.csv}
		for i, c := range cells {
			s.Add(float64(i), col.value(c))
		}
		series = append(series, s)
	}
	return report.WriteSeriesCSV(w, xLabel, "value", series...)
}

// scenarioColumn is the leading column of the per-scenario studies: the
// scenario name in the table, its number in the CSV.
func scenarioColumn[C any](get func(C) costmodel.Scenario) column[C] {
	return column[C]{header: "scenario", csv: "scenario",
		value: func(c C) float64 { return float64(get(c)) },
		text:  func(c C) string { return get(c).String() }}
}

// percentText renders a relative difference as a signed percentage, or
// "-" when it is undefined.
func percentText(format string, v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}
