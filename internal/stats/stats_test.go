package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 6} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Errorf("N = %d, want 3", s.N())
	}
	if s.Mean() != 4 {
		t.Errorf("Mean = %g, want 4", s.Mean())
	}
	if s.Sum() != 12 {
		t.Errorf("Sum = %g, want 12", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Sum() != 0 || s.Mean() != 0 {
		t.Error("empty summary must report zeros")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean = %g, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %g, want 0", g)
	}
	// Non-positive values are skipped.
	if g := GeoMean([]float64{0, -3, 2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean with non-positives = %g, want 4", g)
	}
}

func TestGeoMeanScaleInvariance(t *testing.T) {
	err := quick.Check(func(seed uint8) bool {
		xs := []float64{1 + float64(seed%7), 2 + float64(seed%3), 5}
		g1 := GeoMean(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 3
		}
		g2 := GeoMean(scaled)
		return math.Abs(g2-3*g1) < 1e-9*g2
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "workload", "speedup")
	tb.AddRow("mcf_m", 1.5)
	tb.AddStringRow("gmean", "1.234")
	out := tb.String()
	for _, want := range []string{"Fig X", "workload", "mcf_m", "1.500", "gmean", "1.234"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
	if got := tb.Row(0)[0]; got != "mcf_m" {
		t.Errorf("Row(0)[0] = %q", got)
	}
}

func TestBarChart(t *testing.T) {
	tb := NewTable("t", "w", "speedup")
	tb.AddRow("a", 1.0)
	tb.AddRow("bb", 2.0)
	tb.AddStringRow("c", "not-a-number")
	chart := tb.BarChart(1, 10)
	if !strings.Contains(chart, "speedup") {
		t.Error("chart missing column header")
	}
	if !strings.Contains(chart, "##########") {
		t.Error("max row not full width")
	}
	if !strings.Contains(chart, "##### 1.000") {
		t.Errorf("half-scale bar wrong:\n%s", chart)
	}
	if strings.Contains(chart, "not-a-number") {
		t.Error("non-numeric row rendered")
	}
	if tb.BarChart(0, 10) != "" || tb.BarChart(5, 10) != "" || tb.BarChart(1, 0) != "" {
		t.Error("invalid args must render nothing")
	}
}

func TestBarChartAllZeros(t *testing.T) {
	tb := NewTable("t", "w", "v")
	tb.AddRow("a", 0)
	if chart := tb.BarChart(1, 10); !strings.Contains(chart, "0.000") {
		t.Errorf("zero column mishandled:\n%s", chart)
	}
}

func TestSummaryRejectsNonFinite(t *testing.T) {
	var s Summary
	s.Add(3)
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	s.Add(5)
	if s.N() != 2 {
		t.Errorf("N = %d, want 2 (non-finite values must be dropped)", s.N())
	}
	if s.Rejected() != 3 {
		t.Errorf("Rejected = %d, want 3", s.Rejected())
	}
	if s.Mean() != 4 {
		t.Errorf("Mean = %g, want 4", s.Mean())
	}
	if s.Sum() != 8 {
		t.Errorf("Sum = %g, want 8", s.Sum())
	}
}
