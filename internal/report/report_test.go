package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"amdahlyd/internal/xmath"
)

func TestFmt(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.NaN(), "-"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
		{0, "0"},
		{0.108, "0.10800"},
		{3.25, "3.250"},
		{219.4, "219.4"},
		{6240, "6240.0"},
		{1.69e-8, "1.690e-08"},
		{2.5e7, "2.500e+07"},
	}
	for _, c := range cases {
		if got := Fmt(c.v); got != c.want {
			t.Errorf("Fmt(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Theorem 2 on Hera", "scenario", "P*", "T*")
	if err := tb.AddRow("1", "219", "6240"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("2", Fmt(220.0), Fmt(6240.0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"Theorem 2 on Hera", "scenario", "P*", "219", "6240.0", "---"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
	// Title, header and rule, then one line per row.
	lines := strings.Split(out, "\n")
	if rows := lines[3 : len(lines)-1]; len(rows) != 2 {
		t.Errorf("rendered %d rows, want 2:\n%s", len(rows), out)
	}
	// Header and rows align: the "P*" column start must match.
	head := strings.Index(lines[1], "P*")
	row := strings.Index(lines[3], "219")
	if head != row {
		t.Errorf("columns misaligned: header at %d, cell at %d\n%s", head, row, out)
	}
}

func TestTableRejectsWideRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	if err := tb.AddRow("1", "2", "3"); err == nil {
		t.Error("over-wide row accepted")
	}
	if err := tb.AddRow("1"); err != nil {
		t.Error("short row should be padded, not rejected")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var s1, s2 Series
	s1.Name = "first-order"
	s1.Add(1e-12, 100)
	s1.Add(1e-10, 50)
	s2.Name = "optimal"
	s2.Add(1e-12, 110)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "lambda", "pstar", s1, s2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header + 3 rows, got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "series,lambda,pstar" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "first-order,1e-12,100") {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestLogSlopeRecoverseExponents(t *testing.T) {
	// y = 3·x^(-1/4): slope must be −0.25.
	var s Series
	for _, x := range []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8} {
		s.Add(x, 3*math.Pow(x, -0.25))
	}
	slope, err := LogSlope(s)
	if err != nil {
		t.Fatal(err)
	}
	if !xmath.EqualWithin(slope, -0.25, 1e-9, 1e-12) {
		t.Errorf("slope = %g, want −0.25", slope)
	}
}

func TestLogSlopeErrors(t *testing.T) {
	var s Series
	s.Add(1, 1)
	if _, err := LogSlope(s); err == nil {
		t.Error("single point accepted")
	}
	var neg Series
	neg.Add(-1, 5)
	neg.Add(-2, 5)
	if _, err := LogSlope(neg); err == nil {
		t.Error("non-positive points accepted")
	}
	var same Series
	same.Add(2, 5)
	same.Add(2, 7)
	if _, err := LogSlope(same); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestChartRender(t *testing.T) {
	var s Series
	s.Name = "P* vs lambda"
	for _, x := range []float64{1e-12, 1e-11, 1e-10, 1e-9, 1e-8} {
		s.Add(x, math.Pow(x, -0.25))
	}
	var buf bytes.Buffer
	c := Chart{Title: "Fig 5(a)", XLabel: "lambda", YLabel: "P*", LogX: true, LogY: true}
	if err := c.Render(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 5(a)") || !strings.Contains(out, "P* vs lambda") {
		t.Errorf("chart missing title or legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("chart has no data markers")
	}
	// A decreasing power law must put the '*' of the smallest x in the
	// top-left region and of the largest x in the bottom-right region.
	lines := strings.Split(out, "\n")
	var first, last int
	for i, ln := range lines {
		// Only plot-area rows (framed with '|'), not the legend.
		if strings.Contains(ln, "|") && strings.Contains(ln, "*") {
			if first == 0 {
				first = i
			}
			last = i
		}
	}
	topCol := strings.Index(lines[first], "*")
	botCol := strings.LastIndex(lines[last], "*")
	if !(topCol < botCol) {
		t.Errorf("decreasing curve not rendered as decreasing (cols %d vs %d)", topCol, botCol)
	}
}

func TestChartMultiSeriesMarkers(t *testing.T) {
	var a, b Series
	a.Name, b.Name = "A", "B"
	a.Add(1, 1)
	a.Add(2, 2)
	b.Add(1, 2)
	b.Add(2, 1)
	var buf bytes.Buffer
	if err := (Chart{}).Render(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("distinct markers missing:\n%s", out)
	}
}

func TestChartErrors(t *testing.T) {
	var empty Series
	var buf bytes.Buffer
	if err := (Chart{}).Render(&buf, empty); err == nil {
		t.Error("empty series accepted")
	}
	var s Series
	s.Add(-1, -1)
	if err := (Chart{LogX: true, LogY: true}).Render(&buf, s); err == nil {
		t.Error("only non-positive points on log axes accepted")
	}
	if err := (Chart{Width: 2, Height: 2}).Render(&buf, s); err == nil {
		t.Error("tiny chart accepted")
	}
}

func TestChartConstantSeries(t *testing.T) {
	// A flat line must render without division by zero.
	var s Series
	s.Add(1, 5)
	s.Add(2, 5)
	s.Add(3, 5)
	var buf bytes.Buffer
	if err := (Chart{}).Render(&buf, s); err != nil {
		t.Fatal(err)
	}
}
