package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"fpb/internal/sim"
	"fpb/internal/system"
)

func TestCheckerFlippedDigestFails(t *testing.T) {
	ck := newChecker(map[string]string{"k1": "aaaa", "k2": "bbbb"})
	if !ck.check("unit", "k1", "aaaa") {
		t.Fatal("matching digest failed")
	}
	if ck.check("unit", "k2", "bbbc") {
		t.Fatal("flipped digest passed")
	}
	if ck.check("unit", "k3", "cccc") {
		t.Fatal("pinned checker accepted an unknown key")
	}
	if ck.attempted != 3 || ck.failed != 2 || len(ck.errs) != 2 {
		t.Fatalf("attempted %d failed %d errs %v; want 3, 2, 2 errors", ck.attempted, ck.failed, ck.errs)
	}
}

func TestCheckerRepetitionsMustAgree(t *testing.T) {
	ck := newChecker(nil)
	pts := []point{{wl: "x", key: "k1"}, {wl: "y", key: "k2"}}
	ck.checkBatch("rep 1", pts, map[string]string{"k1": "d1", "k2": "d2"})
	ck.checkBatch("rep 2", pts, map[string]string{"k1": "d1", "k2": "d2"})
	if ck.failed != 0 || ck.attempted != 4 {
		t.Fatalf("identical repetitions: attempted %d failed %d", ck.attempted, ck.failed)
	}
	ck.checkBatch("rep 3", pts, map[string]string{"k1": "d1", "k2": "dX"})
	ck.checkBatch("rep 4", pts, map[string]string{"k1": "d1"})
	if ck.failed != 2 || ck.attempted != 8 {
		t.Fatalf("diverging repetitions: attempted %d failed %d, want 8, 2", ck.attempted, ck.failed)
	}
}

// TestDigestSurvivesJSON is what lets fleet results, which cross HTTP as
// JSON, be held against in-process digests.
func TestDigestSurvivesJSON(t *testing.T) {
	res := system.Result{Workload: "mcf_m", Scheme: "GCP", CPI: 1.0 / 3, Cycles: 1 << 40, Instrs: 160117,
		WriteThroughput: 123.456789012345, Metrics: map[string]float64{"b": 0.1, "a": 2e-300, "c": 1e21}}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back system.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if digest(back) != digest(res) {
		t.Fatal("digest changed across a JSON round trip")
	}
	res.CPI = 0.3333333333333333 + 1e-16
	if digest(back) == digest(res) {
		t.Fatal("digest ignored a changed field")
	}
}

func TestGoldenCoversTheBatches(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != sim.DefaultConfig().Seed {
		t.Fatalf("golden seed %d, want the default seed %d", g.Seed, sim.DefaultConfig().Seed)
	}
	for _, c := range []struct {
		workload string
		set      goldenSet
		n        int
	}{{"fig18_cold", g.Fig18, 65}, {"sim_writes_long", g.Writes, 20}} {
		pts := workloadPoints(c.workload, g.Seed)
		if len(pts) != c.n || len(c.set.Digests) != c.n {
			t.Fatalf("%s: %d points, %d digests, want %d", c.workload, len(pts), len(c.set.Digests), c.n)
		}
		for _, p := range pts {
			if _, ok := c.set.Digests[p.key]; !ok {
				t.Errorf("%s: no golden digest for %s", c.workload, p)
			}
			if p.cfg.InstrPerCore != c.set.InstrPerCore {
				t.Errorf("%s: budget %d, golden %d", c.workload, p.cfg.InstrPerCore, c.set.InstrPerCore)
			}
		}
	}
	if !strings.Contains(g.Fig18.Table, "gmean     1.415  2.366    2.332       2.614") {
		t.Errorf("golden Fig. 18 table lost its gmean row:\n%s", g.Fig18.Table)
	}
}

// TestSeedReachesEveryPoint: the seed goes into every simulated config, so
// another seed gives other keys.
func TestSeedReachesEveryPoint(t *testing.T) {
	def := map[string]bool{}
	for _, p := range workloadPoints("fig18_cold", sim.DefaultConfig().Seed) {
		def[p.key] = true
	}
	pts := workloadPoints("fig18_cold", 42)
	if len(pts) != len(def) {
		t.Fatalf("seed 42: %d points, default seed %d", len(pts), len(def))
	}
	for _, p := range pts {
		if p.cfg.Seed != 42 || def[p.key] {
			t.Errorf("%s: seed %d, key shared with the default seed: %v", p, p.cfg.Seed, def[p.key])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the reported metrics in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", what, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, reported %+v", what, i, m, want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "fig18_cold,sim_writes_long,fleet_fig18" {
		t.Errorf("workloads %v", names)
	}
}
