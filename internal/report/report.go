// Package report renders the reproduction's tables and figures as text:
// plain ASCII (the default for terminal output), Markdown (for
// EXPERIMENTS.md), and CSV (for downstream plotting). Every experiment in
// internal/experiments produces a Table; the renderers keep the output of
// cmd/paperrepro, the benchmarks, and the documentation consistent.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	// ID is the paper artifact identifier, e.g. "table1-1" or "fig6-2".
	ID string
	// Title is the caption, e.g. the paper's own table title.
	Title string
	// Note holds caveats (substitutions, calibration remarks).
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of Sprint-formatted values.
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = FormatFloat(x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// FormatFloat renders a float the way the paper's tables do: one decimal
// for percentages-sized values, more precision for small ratios.
func FormatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 100:
		return fmt.Sprintf("%.0f", x)
	case x >= 1:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// FormatMeanSD renders an aggregated measurement the way the sweep
// engine's multi-seed tables do: mean, sample stddev, and the 95%
// confidence half-width, each through FormatFloat.
func FormatMeanSD(mean, sd, ci float64) string {
	return fmt.Sprintf("%s ±%s (ci %s)", FormatFloat(mean), FormatFloat(sd), FormatFloat(ci))
}

// Plain renders the table as aligned ASCII text.
func (t *Table) Plain() string {
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
	if t.Title != "" {
		fmt.Fprintf(&b, "%s (%s)\n", t.Title, t.ID)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s** (`%s`)\n\n", t.Title, t.ID)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CheckFormat accepts exactly the format names Render renders: plain,
// markdown (or md) and csv. Callers check a user's format with it, since
// Render itself falls back to plain.
func CheckFormat(format string) error {
	switch format {
	case "plain", "markdown", "md", "csv":
		return nil
	}
	return fmt.Errorf("unknown format %q (want plain, markdown, or csv)", format)
}

// Render maps a format name ("plain", "markdown", "csv") to the matching
// renderer; unknown names fall back to plain.
func (t *Table) Render(format string) string {
	switch format {
	case "markdown", "md":
		return t.Markdown()
	case "csv":
		return t.CSV()
	default:
		return t.Plain()
	}
}
