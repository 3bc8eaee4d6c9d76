package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCompareIgnoresHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, snap Snapshot) string {
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := map[string]map[string]float64{"CacheAccessHit": {"ns_op": 5}}
	// A snapshot from before host records existed, against one from a
	// different host: only the benchmark numbers are compared.
	old := write("old.json", Snapshot{Benchmarks: bench})
	cur := write("new.json", Snapshot{Host: &Host{NProc: 64, GOMAXPROCS: 1, GoVersion: "go1.0"}, Benchmarks: bench})
	var out strings.Builder
	n, err := compareFiles(&out, old, cur, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !strings.Contains(out.String(), "no regressions beyond 20% across 1 benchmark(s)") {
		t.Errorf("compare = %d regressions:\n%s", n, out.String())
	}
}

func TestParseBenchRecordsMedianAndSpread(t *testing.T) {
	in := `goos: linux
BenchmarkProfileBuild-2   	   50000	     30000 ns/op	       0 B/op	       0 allocs/op
BenchmarkProfileBuild-2   	   50000	     10000 ns/op	       0 B/op	       0 allocs/op
BenchmarkProfileBuild-2   	   60000	     20000 ns/op	       0 B/op	       2 allocs/op
BenchmarkFig18Throughput 	       1	1675000000 ns/op
PASS
`
	snap, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"ProfileBuild": {"ns_op": 20000, "ns_op_min": 10000, "ns_op_max": 30000, "runs": 3,
			"b_op": 0, "allocs_op": 0},
		"Fig18Throughput": {"ns_op": 1675000000, "ns_op_min": 1675000000, "ns_op_max": 1675000000, "runs": 1},
	}
	if !reflect.DeepEqual(snap.Benchmarks, want) {
		t.Errorf("parseBench = %v, want %v", snap.Benchmarks, want)
	}
}
