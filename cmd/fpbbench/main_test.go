package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
