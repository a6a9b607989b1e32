// Package report renders experiment outputs as ASCII tables and series —
// the textual equivalents of the paper's tables and figures, printed by the
// cmd/experiments harness and the benchmark suite.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-column table renderer.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded, long rows are an error.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) > len(t.Headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
	return nil
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// F formats a float compactly for table cells.
func F(v float64) string { return fmt.Sprintf("%.2f", v) }

// F4 formats with four decimals (costs in USD).
func F4(v float64) string { return fmt.Sprintf("%.4f", v) }

// Pct formats a percentage with sign.
func Pct(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

// Sparkline renders a series as a compact unicode bar chart, one character
// per bucket (max over the bucket), for eyeballing memory timelines in
// terminal output.
func Sparkline(xs []float64, width int) string {
	if len(xs) == 0 || width <= 0 {
		return ""
	}
	ticks := []rune("▁▂▃▄▅▆▇█")
	if width > len(xs) {
		width = len(xs)
	}
	bucket := (len(xs) + width - 1) / width
	var lo, hi float64
	lo, hi = xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for i := 0; i < len(xs); i += bucket {
		m := xs[i]
		for j := i; j < i+bucket && j < len(xs); j++ {
			if xs[j] > m {
				m = xs[j]
			}
		}
		idx := 0
		if span > 0 {
			idx = int((m - lo) / span * float64(len(ticks)-1))
		}
		b.WriteRune(ticks[idx])
	}
	return b.String()
}
