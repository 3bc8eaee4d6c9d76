package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"fpb/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_results.json from the current code")

const goldenResultsFile = "testdata/golden_results.json"

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
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenResultsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, golden file has %d", len(got), len(want))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from the golden file", k)
		} else if g != w {
			t.Errorf("%s: result digest %s, golden %s", k, g, w)
		}
	}
}
