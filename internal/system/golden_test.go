package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"fpb/internal/sim"
	"fpb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden_*.json files of the selected tests from the current code")

const (
	goldenResultsFile = "testdata/golden_results.json"
	goldenPrefillFile = "testdata/golden_prefill.json"
)

// TestGoldenResults pins the exact bytes of json.Marshal(Result) for every
// scheme on two workloads: a refactor of the simulator must leave all of them
// unchanged. Regenerate only with
//
//	go test ./internal/system -run TestGoldenResults -update
//
// and review the diff.
func TestGoldenResults(t *testing.T) {
	got := map[string]string{}
	for _, wl := range []string{"mcf_m", "lbm_m"} {
		for s := sim.SchemeIdeal; s <= sim.SchemeIPMMR; s++ {
			cfg := sim.DefaultConfig()
			cfg.Scheme = s
			cfg.InstrPerCore = 2_000
			res, err := RunWorkload(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[wl+"/"+s.String()] = hex.EncodeToString(sum[:])
		}
	}
	checkGolden(t, goldenResultsFile, got)
}

// TestGoldenPrefill pins the exact warm cache state prefill leaves in every
// core of three workloads at the default geometry, plus one core at a 128 MB
// L3 (the stream footprint fits, so the warm-up re-inserts resident lines),
// one at 128 B L3 lines, and one at 192 B lines and a 64 MB L3 (the stream
// laps a region whose span is not a power of two). Every measured run
// starts from this state, so it must not change under a refactor either.
// Each hierarchy is pinned by its Digest. Regenerate only with
//
//	go test ./internal/system -run TestGoldenPrefill -update
//
// and review the diff.
func TestGoldenPrefill(t *testing.T) {
	got := map[string]string{}
	digest := func(label string, cfg sim.Config, wlName string, cores int) {
		wl, err := workload.ByName(wlName, cfg.Cores)
		if err != nil {
			t.Fatal(err)
		}
		// The generators are derived exactly as build derives them.
		root := sim.NewRNG(cfg.Seed)
		for i := 0; i < cores; i++ {
			prof := wl.Cores[i]
			gen := workload.NewGenerator(prof, &cfg, i, root.Derive(uint64(1000+i)).Derive(1))
			h := prefill(&cfg, gen, prof)
			sum := h.Digest()
			got[fmt.Sprintf("%s%s/core%d", label, wlName, i)] = hex.EncodeToString(sum[:])
			h.Release()
		}
	}
	cfg := sim.DefaultConfig()
	for _, wl := range []string{"mcf_m", "lbm_m", "mix_1"} {
		digest("", cfg, wl, cfg.Cores)
	}
	big := sim.DefaultConfig()
	big.L3SizeMB = 128
	digest("L3SizeMB=128/", big, "mcf_m", 1)
	wide := sim.DefaultConfig()
	wide.L3LineB = 128
	digest("L3LineB=128/", wide, "mcf_m", 1)
	odd := sim.DefaultConfig()
	odd.L3LineB, odd.L3SizeMB = 192, 64
	digest("L3LineB=192,L3SizeMB=64/", odd, "mcf_m", 1)
	checkGolden(t, goldenPrefillFile, got)
}

// checkGolden compares digests against a golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file string, got map[string]string) {
	t.Helper()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, golden file has %d", len(got), len(want))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from the golden file", k)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s", k, g, w)
		}
	}
}
