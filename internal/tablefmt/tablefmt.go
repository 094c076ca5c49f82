// Package tablefmt renders the experiment harness's tables as aligned
// ASCII (for terminal reports) and CSV (for external plotting). Only the
// small surface the harness needs is implemented — it is not a general
// table library.
package tablefmt

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a rectangular table with a header row.
type Table struct {
	header []string
	rows   [][]string
}

// New returns a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: append([]string(nil), header...)}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// NumCols returns the number of columns (header width).
func (t *Table) NumCols() int { return len(t.header) }

// AddRow appends a row. Rows shorter than the header are padded with
// empty cells; longer rows panic (they indicate a harness bug).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("tablefmt: row has %d cells, header has %d", len(cells), len(t.header)))
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// ASCII renders the table with aligned columns and a separator under the
// header.
func (t *Table) ASCII() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV emits the table as CSV, header first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Series is a named (x, y) sequence — one curve or point cloud of a
// figure.
type Series struct {
	Name string
	X, Y []float64
}

// Figure is a set of series sharing axes, exported as long-format CSV
// (series, x, y) so external tools can plot any figure the same way.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Add appends a series; X and Y must be the same length.
func (f *Figure) Add(name string, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tablefmt: series %q has %d x and %d y values", name, len(x), len(y)))
	}
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// WriteCSV emits long-format CSV: series,x,y.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for i := range s.X {
			rec := []string{s.Name, fmt.Sprintf("%g", s.X[i]), fmt.Sprintf("%g", s.Y[i])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary renders a short textual sketch of the figure: per series, the
// count and x/y ranges — enough to eyeball shapes in a terminal report.
func (f *Figure) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [x: %s, y: %s]\n", f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		if len(s.X) == 0 {
			fmt.Fprintf(&b, "  %-24s (empty)\n", s.Name)
			continue
		}
		minX, maxX := s.X[0], s.X[0]
		minY, maxY := s.Y[0], s.Y[0]
		for i := range s.X {
			if s.X[i] < minX {
				minX = s.X[i]
			}
			if s.X[i] > maxX {
				maxX = s.X[i]
			}
			if s.Y[i] < minY {
				minY = s.Y[i]
			}
			if s.Y[i] > maxY {
				maxY = s.Y[i]
			}
		}
		fmt.Fprintf(&b, "  %-24s n=%-5d x∈[%.4g, %.4g] y∈[%.4g, %.4g]\n",
			s.Name, len(s.X), minX, maxX, minY, maxY)
	}
	return b.String()
}
