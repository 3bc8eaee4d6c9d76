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
	if s.Min() != 2 || s.Max() != 6 {
		t.Errorf("Min/Max = %g/%g, want 2/6", s.Min(), s.Max())
	}
	if s.Sum() != 12 {
		t.Errorf("Sum = %g, want 12", s.Sum())
	}
	if s.Last() != 6 {
		t.Errorf("Last = %g, want 6", s.Last())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 || s.StdDev() != 0 {
		t.Error("empty summary must report zeros")
	}
}

func TestSummaryStdDev(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if math.Abs(s.StdDev()-2) > 1e-9 {
		t.Errorf("StdDev = %g, want 2", s.StdDev())
	}
}

func TestSummaryMinMaxProperty(t *testing.T) {
	err := quick.Check(func(vs []float64) bool {
		var s Summary
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue // avoid float64 overflow in sum-of-squares
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		return s.Min() <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
	}, nil)
	if err != nil {
		t.Error(err)
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

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio(x,0) must be 0")
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

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("SortedKeys = %v", keys)
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
	if s.Min() != 3 || s.Max() != 5 {
		t.Errorf("Min/Max = %g/%g, want 3/5", s.Min(), s.Max())
	}
	if math.IsNaN(s.StdDev()) || math.IsInf(s.StdDev(), 0) {
		t.Errorf("StdDev = %g, want finite", s.StdDev())
	}
}
