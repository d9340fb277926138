// Package report renders experiment results as aligned ASCII tables, CSV,
// and simple ASCII line charts — the output layer for cmd/figures and the
// examples.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells. The first header names the row key.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
	text    string // the ASCII rendering Freeze keeps; "" until then
}

// Freeze renders the table's ASCII text once and keeps it, so that every
// later WriteASCII or String is a single write of those bytes. A frozen
// table must not change: callers freeze tables they share.
func (t *Table) Freeze() { t.text = t.ascii() }

// AddRow appends a row; it panics when the arity does not match the
// headers, which is always a construction bug in the experiment code.
func (t *Table) AddRow(cells ...string) {
	if len(t.Headers) > 0 && len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	_, err := io.WriteString(w, t.String())
	return err
}

// String renders ASCII into a string.
func (t *Table) String() string {
	if t.text != "" {
		return t.text
	}
	return t.ascii()
}

// ascii renders the table with aligned columns.
func (t *Table) ascii() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	var b strings.Builder
	b.Grow(len(t.Title) + (total+1)*(len(t.Rows)+2) + len(t.Note) + 8)
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
			// Pad by runes, as fmt's %-*s does, while widths count
			// bytes: a cell holding "µs" gets one space more than its
			// byte length implies.
			for n := widths[i] - utf8.RuneCountInString(c); n > 0; n -= len(spaces) {
				b.WriteString(spaces[:min(n, len(spaces))])
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		b.WriteString("note: ")
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// spaces pads WriteASCII's cells.
const spaces = "                                "

// WriteCSV renders the table as CSV (headers first, title omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Series is one named line in a chart.
type Series struct {
	Name   string
	Points []float64
}

// Chart is a minimal ASCII line chart over a shared X axis, for quick
// visual checks of figure shapes in the terminal.
type Chart struct {
	Title  string
	XLabel string
	XTicks []string
	Series []Series
	Height int // rows; default 12
}

// WriteASCII renders the chart.
func (c *Chart) WriteASCII(w io.Writer) error {
	height := c.Height
	if height <= 0 {
		height = 12
	}
	width := 0
	for _, s := range c.Series {
		if len(s.Points) > width {
			width = len(s.Points)
		}
	}
	if width == 0 {
		_, err := fmt.Fprintf(w, "%s\n(no data)\n", c.Title)
		return err
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, p := range s.Points {
			min = math.Min(min, p)
			max = math.Max(max, p)
		}
	}
	if max == min {
		max = min + 1
	}
	// Each series gets a marker letter.
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width*6))
	}
	for si, s := range c.Series {
		marker := byte('a' + si%26)
		for xi, p := range s.Points {
			y := int(math.Round((p - min) / (max - min) * float64(height-1)))
			row := height - 1 - y
			col := xi * 6
			if grid[row][col] == ' ' {
				grid[row][col] = marker
			} else {
				grid[row][col] = '*' // overlap
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (min=%.3g max=%.3g)\n", c.Title, min, max)
	for _, row := range grid {
		fmt.Fprintf(&b, "| %s\n", string(row))
	}
	b.WriteString("+" + strings.Repeat("-", width*6+1) + "\n ")
	for _, tick := range c.XTicks {
		fmt.Fprintf(&b, " %-5s", tick)
	}
	b.WriteByte('\n')
	for si, s := range c.Series {
		fmt.Fprintf(&b, "  %c = %s\n", byte('a'+si%26), s.Name)
	}
	if c.XLabel != "" {
		fmt.Fprintf(&b, "  x: %s\n", c.XLabel)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatCount renders large counts compactly (12.3k, 4.5M).
func FormatCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// FormatPct renders a fraction as a percentage.
func FormatPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
