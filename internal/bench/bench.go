// Package bench is the table harness of the paper reproduction, and
// nothing else: cmd/reproduce uses it to run repeated trials (Measure,
// TimeTrials), aggregate mean and standard deviation, and render the
// rows and series of Figures 2-3 (Table, Series) as aligned text or CSV.
// GitCommit (gitinfo.go) labels build-info gauges with the working
// tree's commit.
//
// Performance of the runtime itself is not measured here. The
// repository's benchmark (BENCHMARK.json, benchmark/) owns the
// end-to-end and per-layer metrics, and the allocation pins are tier-1
// tests beside the code they pin (EXPERIMENTS.md, "Where each
// microbenchmark row is measured now").
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is one measurement: Y (mean) at X, with standard deviation Dev
// over the trials.
type Point struct {
	X   float64
	Y   float64
	Dev float64
}

// Series is a named curve, e.g. "defer" or "FGL" in Figure 2.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y, dev float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Dev: dev})
}

// At returns the Y value at x (NaN if absent).
func (s *Series) At(x float64) float64 {
	if p, ok := s.point(x); ok {
		return p.Y
	}
	return math.NaN()
}

func (s *Series) point(x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

// Table is a figure-shaped result set: one row per X value, one column
// per series.
type Table struct {
	Title  string
	XLabel string // e.g. "threads"
	YLabel string // e.g. "execution time (s)"
	Series []*Series
}

// NewTable creates an empty table.
func NewTable(title, xLabel, yLabel string) *Table {
	return &Table{Title: title, XLabel: xLabel, YLabel: yLabel}
}

// Series returns (creating if needed) the named series.
func (t *Table) SeriesByName(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	s := &Series{Name: name}
	t.Series = append(t.Series, s)
	return s
}

// xs returns the sorted union of X values across series.
func (t *Table) xs() []float64 {
	set := map[float64]bool{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			set[p.X] = true
		}
	}
	out := make([]float64, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

func formatX(x float64) string {
	if x == math.Trunc(x) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}

// Render writes an aligned text table: header row of series names, one
// row per X, cells "mean±dev".
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s vs %s\n", t.Title, t.YLabel, t.XLabel)
	cols := make([]string, 0, len(t.Series)+1)
	cols = append(cols, t.XLabel)
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	rows := [][]string{cols}
	for _, x := range t.xs() {
		row := []string{formatX(x)}
		for _, s := range t.Series {
			switch p, ok := s.point(x); {
			case !ok:
				row = append(row, "-")
			case p.Dev > 0:
				row = append(row, fmt.Sprintf("%.3f±%.3f", p.Y, p.Dev))
			default:
				row = append(row, fmt.Sprintf("%.3f", p.Y))
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(cols))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(b.String(), " "))))
		}
	}
}

// RenderCSV writes the table as CSV (x, then one column per series mean,
// then one per series dev).
func (t *Table) RenderCSV(w io.Writer) {
	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	for _, s := range t.Series {
		cols = append(cols, s.Name+"_dev")
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, x := range t.xs() {
		row := []string{formatX(x)}
		devs := make([]string, len(t.Series))
		for i, s := range t.Series {
			cell := ""
			if p, ok := s.point(x); ok {
				cell, devs[i] = fmt.Sprintf("%.6f", p.Y), fmt.Sprintf("%.6f", p.Dev)
			}
			row = append(row, cell)
		}
		row = append(row, devs...)
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// MeanStd returns the mean and (population) standard deviation.
func MeanStd(samples []float64) (mean, std float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		std += (s - mean) * (s - mean)
	}
	std = math.Sqrt(std / float64(len(samples)))
	return mean, std
}

// TimeTrials runs fn `trials` times and returns per-trial wall-clock
// seconds. The paper reports the average of 5 trials.
func TimeTrials(trials int, fn func()) []float64 {
	if trials < 1 {
		trials = 1
	}
	out := make([]float64, trials)
	for i := range out {
		start := time.Now()
		fn()
		out[i] = time.Since(start).Seconds()
	}
	return out
}

// Measure runs fn `trials` times and adds the aggregated point to series
// s at x.
func Measure(s *Series, x float64, trials int, fn func()) {
	mean, dev := MeanStd(TimeTrials(trials, fn))
	s.Add(x, mean, dev)
}
