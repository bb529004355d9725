// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII): workload generation, parameter sweeps, baselines and
// the proposed methods, with results rendered as aligned text tables or
// CSV. Each experiment is a pure function of its Scale, so runs are
// reproducible; the experiment ids are the registry in registry.go, and
// the module root's bench_test.go runs each as one benchmark.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment artifact: a figure's data series or a
// literal table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes document scale substitutions and interpretation choices that
	// apply to this artifact.
	Notes []string
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no quoting is needed:
// cells are numbers and identifiers).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtG formats a float compactly for table cells.
func fmtG(v float64) string { return fmt.Sprintf("%.4g", v) }
