// Package stats provides the measurement primitives used across the
// simulator: streaming summaries (count, sum, mean), geometric means for
// speedup aggregation, and fixed-width table rendering for the experiment
// harness output.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates a stream of float64 observations. NaN and ±Inf
// observations are rejected (counted in Rejected): a single poisoned value
// would otherwise silently propagate through the sum into every derived
// metric of a run.
type Summary struct {
	n        uint64
	rejected uint64
	sum      float64
}

// Add records one observation; non-finite values are dropped.
func (s *Summary) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.rejected++
		return
	}
	s.n++
	s.sum += v
}

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Rejected returns how many non-finite observations were dropped.
func (s *Summary) Rejected() uint64 { return s.rejected }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values
// (which have no geometric mean); it returns 0 if no positive values exist.
// The paper reports gmean speedups across workloads.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table renders labeled rows of numbers in a fixed-width layout matching the
// style the experiment harness prints for each figure/table of the paper.
type Table struct {
	Title   string
	Columns []string // column headers, first column is the row label
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row: a label followed by float cells rendered as %.3f.
func (t *Table) AddRow(label string, cells ...float64) {
	row := make([]string, 0, len(cells)+1)
	row = append(row, label)
	for _, c := range cells {
		row = append(row, fmt.Sprintf("%.3f", c))
	}
	t.rows = append(t.rows, row)
}

// AddStringRow appends a row of raw strings.
func (t *Table) AddStringRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns the i-th row's cells.
func (t *Table) Row(i int) []string { return t.rows[i] }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := ""
	for i, c := range t.Columns {
		line += pad(c, widths[i]) + "  "
	}
	out += line + "\n"
	for _, row := range t.rows {
		line = ""
		for i, cell := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			line += pad(cell, w) + "  "
		}
		out += line + "\n"
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

// BarChart renders one numeric column of the table as a horizontal ASCII
// bar chart scaled to the column maximum — the terminal stand-in for the
// paper's bar figures. col is 1-based over the data columns (column 0 is
// the row label); width is the maximum bar length in characters.
func (t *Table) BarChart(col, width int) string {
	if col < 1 || col >= len(t.Columns) || width <= 0 {
		return ""
	}
	max := 0.0
	vals := make([]float64, len(t.rows))
	ok := make([]bool, len(t.rows))
	for i, row := range t.rows {
		if col < len(row) {
			if _, err := fmt.Sscan(row[col], &vals[i]); err == nil {
				ok[i] = true
				if vals[i] > max {
					max = vals[i]
				}
			}
		}
	}
	if max == 0 {
		max = 1
	}
	labelW := 0
	for _, row := range t.rows {
		if len(row[0]) > labelW {
			labelW = len(row[0])
		}
	}
	out := t.Columns[col] + "\n"
	for i, row := range t.rows {
		if !ok[i] {
			continue
		}
		n := int(vals[i] / max * float64(width))
		out += fmt.Sprintf("%s  %s %.3f\n", pad(row[0], labelW), bar(n), vals[i])
	}
	return out
}

func bar(n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
