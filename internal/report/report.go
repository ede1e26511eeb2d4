// Package report renders experiment results as aligned text tables, CSV
// series and ASCII charts.
//
// Substitution note: the paper's figures are matplotlib plots. Go has no
// comparable plotting ecosystem, so every figure is emitted (a) as a CSV
// series file suitable for external plotting and (b) as an ASCII chart
// that shows the same shape — who wins, by what factor, where curves
// cross — which is the property the reproduction must preserve.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Fmt formats a float compactly for tables: fixed notation in a readable
// range, scientific outside it, and "-" for NaN (missing values).
func Fmt(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == 0:
		return "0"
	}
	a := math.Abs(v)
	switch {
	case a >= 1e6 || a < 1e-4:
		return strconv.FormatFloat(v, 'e', 3, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case a >= 1:
		return strconv.FormatFloat(v, 'f', 3, 64)
	default:
		return strconv.FormatFloat(v, 'f', 5, 64)
	}
}

// Table is a titled, column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; missing cells render empty, extra cells are
// rejected.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) > len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table has %d columns",
			len(cells), len(t.Columns))
	}
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
	return nil
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		// Trim trailing padding.
		for b.Len() > 0 && b.String()[b.Len()-1] == ' ' {
			s := b.String()
			b.Reset()
			b.WriteString(strings.TrimRight(s, " "))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named curve, the unit the paper's figures are made of.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// WriteSeriesCSV emits series in long form: series,x,y — one row per
// point, trivially consumable by any plotting tool.
func WriteSeriesCSV(w io.Writer, xLabel, yLabel string, series ...Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", xLabel, yLabel}); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(p.X, 'g', 12, 64),
				strconv.FormatFloat(p.Y, 'g', 12, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// LogSlope estimates the log-log slope of a series by least squares over
// its positive points: the tool used to verify the paper's asymptotic
// orders (P* = Θ(λ^-1/4) etc.) from experiment output.
func LogSlope(s Series) (float64, error) {
	var xs, ys []float64
	for _, p := range s.Points {
		if p.X > 0 && p.Y > 0 {
			xs = append(xs, math.Log(p.X))
			ys = append(ys, math.Log(p.Y))
		}
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("report: need >= 2 positive points for a slope, have %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("report: degenerate x values")
	}
	return (n*sxy - sx*sy) / den, nil
}
