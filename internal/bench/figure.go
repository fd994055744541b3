// Package bench reproduces the paper's evaluation (Section VI): one
// runner per figure, each building a paper-shaped cluster (4 nodes,
// N=3, simulated network and service costs standing in for the
// original hardware testbed — see DESIGN.md for the substitution
// argument), driving the same workload, and reporting the same series
// the figure plots. Absolute numbers differ from the paper's testbed;
// the comparisons (who wins, by what factor, where the knees are) are
// the reproduction target, and EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Series is one labeled line/bar group of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproduced table/plot: the same series the paper draws,
// as numbers.
type Figure struct {
	ID     string // e.g. "fig3"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// String renders the figure as an aligned text table: one row per X
// value, one column per series.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	if len(f.Series) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}

	xs, byX := f.byX()
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for i := range f.Series {
			if y, ok := byX[i][x]; ok {
				row = append(row, trimFloat(y))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		b.WriteString("  ")
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
		if ri == 0 {
			b.WriteString("  ")
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]) + "  ")
			}
			b.WriteString("\n")
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as x,series1,series2,... lines.
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteString("," + s.Label)
	}
	b.WriteString("\n")
	xs, byX := f.byX()
	for _, x := range xs {
		b.WriteString(trimFloat(x))
		for i := range f.Series {
			if y, ok := byX[i][x]; ok {
				b.WriteString("," + trimFloat(y))
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// byX returns the union of the series' X values in first-seen order,
// and each series' Y by X: the rows of String and CSV.
func (f Figure) byX() ([]float64, []map[float64]float64) {
	var xs []float64
	seen := map[float64]bool{}
	byX := make([]map[float64]float64, len(f.Series))
	for i, s := range f.Series {
		byX[i] = map[float64]float64{}
		for j, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
			byX[i][x] = s.Y[j]
		}
	}
	return xs, byX
}

// ParseCSV is the inverse of CSV: a series gets a point for every
// non-empty cell of its column.
func ParseCSV(data []byte) (Figure, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		return Figure{}, fmt.Errorf("no data rows")
	}
	header := strings.Split(lines[0], ",")
	if len(header) < 2 {
		return Figure{}, fmt.Errorf("need at least one series column")
	}
	f := Figure{Series: make([]Series, len(header)-1)}
	for i := range f.Series {
		f.Series[i].Label = header[i+1]
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			return Figure{}, fmt.Errorf("ragged row %q", line)
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return Figure{}, fmt.Errorf("bad x value %q", fields[0])
		}
		for i, cell := range fields[1:] {
			if cell == "" {
				continue
			}
			y, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return Figure{}, fmt.Errorf("bad y value %q", cell)
			}
			s := &f.Series[i]
			s.X, s.Y = append(s.X, x), append(s.Y, y)
		}
	}
	return f, nil
}

// Plot renders the figure's series as one ASCII chart, one glyph per
// series, with the y axis anchored at zero; logX puts the x axis on a
// log scale (Figure 8's range widths).
func (f Figure) Plot(logX bool) string {
	const width, height = 64, 16
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	tx := func(x float64) float64 {
		if logX && x > 0 {
			return math.Log10(x)
		}
		return x
	}
	minX, maxX, maxY := math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			minX = math.Min(minX, tx(s.X[i]))
			maxX = math.Max(maxX, tx(s.X[i]))
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) || maxY <= 0 {
		return "  (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		for i := range s.X {
			cx := int((tx(s.X[i]) - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int(s.Y[i]/maxY*float64(height-1))
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = glyphs[si%len(glyphs)]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %10.6g ┤%s\n", maxY, grid[0])
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(&b, "  %10s │%s\n", "", grid[i])
	}
	fmt.Fprintf(&b, "  %10.6g ┤%s\n", 0.0, grid[height-1])
	fmt.Fprintf(&b, "  %10s  %s\n", "", strings.Repeat("─", width))
	untx := func(v float64) float64 {
		if logX {
			return math.Pow(10, v)
		}
		return v
	}
	left, right := fmt.Sprintf("%.6g", untx(minX)), fmt.Sprintf("%.6g", untx(maxX))
	fmt.Fprintf(&b, "  %10s  %s%s%s\n", "", left, strings.Repeat(" ", max(width-len(left)-len(right), 1)), right)
	legend := make([]string, 0, len(f.Series))
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], s.Label))
	}
	fmt.Fprintf(&b, "  legend: %s\n\n", strings.Join(legend, "   "))
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
