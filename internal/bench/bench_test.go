package bench

import (
	"math"
	"strings"
	"testing"
)

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v", m)
	}
	if math.Abs(s-2) > 1e-9 {
		t.Errorf("std = %v", s)
	}
	m, s = MeanStd(nil)
	if m != 0 || s != 0 {
		t.Error("empty samples should be 0,0")
	}
}

func TestSeriesAddAt(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(1, 10, 0.5)
	s.Add(2, 20, 0)
	if s.At(1) != 10 || s.At(2) != 20 {
		t.Error("At lookup wrong")
	}
	if !math.IsNaN(s.At(3)) {
		t.Error("missing X should be NaN")
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Fig 2(a)", "threads", "execution time (s)")
	d := tbl.SeriesByName("defer")
	c := tbl.SeriesByName("CGL")
	d.Add(1, 1.25, 0.1)
	d.Add(2, 0.7, 0)
	c.Add(1, 1.0, 0)
	c.Add(4, 1.1, 0)
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Fig 2(a)", "threads", "defer", "CGL", "1.250±0.100", "0.700", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// SeriesByName returns the same series on re-lookup.
	if tbl.SeriesByName("defer") != d {
		t.Error("SeriesByName created a duplicate")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("t", "x", "y")
	a := tbl.SeriesByName("a")
	a.Add(1, 2.5, 0.25)
	var sb strings.Builder
	tbl.RenderCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "x,a,a_dev" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,2.5") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestTimeTrialsAndMeasure(t *testing.T) {
	n := 0
	samples := TimeTrials(3, func() { n++ })
	if len(samples) != 3 || n != 3 {
		t.Errorf("trials = %d, n = %d", len(samples), n)
	}
	if TimeTrials(0, func() {}) == nil {
		t.Error("zero trials should clamp to 1")
	}
	s := &Series{Name: "m"}
	Measure(s, 4, 2, func() {})
	if len(s.Points) != 1 || s.Points[0].X != 4 {
		t.Errorf("Measure points = %+v", s.Points)
	}
}

func TestFormatX(t *testing.T) {
	if formatX(4) != "4" || formatX(2.5) != "2.5" {
		t.Error("formatX wrong")
	}
}
