package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"fpb/internal/sim"
	"fpb/internal/system"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_tables.txt and testdata/golden_keys.json from the current code")

const (
	goldenTablesFile = "testdata/golden_tables.txt"
	goldenKeysFile   = "testdata/golden_keys.json"
)

// goldenWorkloads and goldenInstr are the tiny scale the table pins run at.
var goldenWorkloads = []string{"mcf_m", "lbm_m"}

const goldenInstr = 2_000

// requested is what one experiment asks its runner for: how many distinct
// (config, workload) pairs and their sorted system.Keys.
type requested struct {
	Sims uint64   `json:"sims"`
	Keys []string `json:"keys"`
}

// TestGoldenTables pins every experiment end to end at a tiny scale: the
// text fpbexp prints for each table (title, paper line and the rendered
// table, from one shared runner as `fpbexp -all` uses it), and the set of
// simulations each experiment requests, taken from a fresh runner whose
// backend simulates nothing. A refactor of the experiments must leave both
// unchanged. Regenerate only with
//
//	go test ./internal/exp -run TestGoldenTables -update
//
// and review the diff.
func TestGoldenTables(t *testing.T) {
	var text strings.Builder
	r := NewRunner(Options{InstrPerCore: goldenInstr, Workloads: goldenWorkloads})
	keys := map[string]requested{}
	for _, e := range All() {
		tb, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&text, "## %s\n\nPaper: %s\n\n%s\n", e.Title, e.Paper, tb)
		keys[e.ID] = dryRun(t, e)
	}
	gotKeys, err := json.MarshalIndent(keys, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenFile(t, goldenTablesFile, text.String())
	checkGoldenFile(t, goldenKeysFile, string(gotKeys)+"\n")
}

// dryRun runs e on a fresh runner whose backend records each pair it is
// asked for and returns an empty result.
func dryRun(t *testing.T, e Experiment) requested {
	t.Helper()
	var mu sync.Mutex
	var keys []string
	r := NewRunner(Options{
		InstrPerCore: goldenInstr,
		Workloads:    goldenWorkloads,
		Backend: func(cfg sim.Config, wl string) (system.Result, error) {
			mu.Lock()
			keys = append(keys, system.Key(cfg, wl))
			mu.Unlock()
			return system.Result{}, nil
		},
	})
	if _, err := e.Run(r); err != nil {
		t.Fatalf("%s dry run: %v", e.ID, err)
	}
	sort.Strings(keys)
	if keys == nil {
		keys = []string{}
	}
	return requested{Sims: r.Simulations(), Keys: keys}
}

// checkGoldenFile compares got against a golden file line by line, or
// rewrites the file under -update.
func checkGoldenFile(t *testing.T, file, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if want := string(b); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", file, i+1, g, w)
			}
		}
	}
}
