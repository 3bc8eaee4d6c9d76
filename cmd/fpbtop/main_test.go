package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fpb/internal/obs"
)

// exposition builds the scraped samples of a node that finished one job per
// simulation latency in simMs.
func exposition(t *testing.T, simMs ...float64) map[string]float64 {
	t.Helper()
	reg := obs.NewRegistry()
	done := reg.Counter("serve.jobs.done")
	h := reg.Histogram("serve.job.sim_ms", obs.LatencyBucketsMs)
	for _, ms := range simMs {
		done.Inc()
		h.Observe(ms)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	s, bad := obs.ParsePrometheus(b.String())
	if len(bad) != 0 {
		t.Fatalf("unparseable exposition lines: %v", bad)
	}
	return s
}

// TestRenderOneLayout: one address and several render the same layout; a
// down node is a DOWN row, and the totals and percentiles cover exactly
// the reachable nodes, with percentiles from their summed buckets.
func TestRenderOneLayout(t *testing.T) {
	a, b := exposition(t, 1, 2, 3), exposition(t, 400, 500)
	var one strings.Builder
	render(&one, []string{"n1"}, []map[string]float64{a}, []error{nil}, nil, 0)
	for _, want := range []string{"n1", "cache%", "fleet    3 done", "0/1 nodes down", "simulation"} {
		if !strings.Contains(one.String(), want) {
			t.Errorf("one-node view lacks %q:\n%s", want, one.String())
		}
	}

	var three strings.Builder
	total := render(&three, []string{"n1", "n2", "n3"}, []map[string]float64{a, nil, b},
		[]error{nil, errors.New("connection refused"), nil}, nil, time.Second)
	out := three.String()
	for _, want := range []string{"n2", "DOWN (connection refused)", "fleet    5 done", "1/3 nodes down"} {
		if !strings.Contains(out, want) {
			t.Errorf("three-node view lacks %q:\n%s", want, out)
		}
	}
	want, _ := obs.HistogramQuantile(exposition(t, 1, 2, 3, 400, 500), "serve_job_sim_ms", 0.50)
	got, ok := obs.HistogramQuantile(total, "serve_job_sim_ms", 0.50)
	if !ok || got != want {
		t.Fatalf("summed p50 = %v (ok %v), want %v", got, ok, want)
	}
	if row := fmt.Sprintf("%-22s %8.3g", "simulation", want); !strings.Contains(out, row) {
		t.Errorf("latency table lacks %q:\n%s", row, out)
	}
}
