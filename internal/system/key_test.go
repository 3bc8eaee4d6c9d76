package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"fpb/internal/sim"
)

func TestKeyIsStableAndDiscriminating(t *testing.T) {
	cfg := sim.DefaultConfig()
	k1 := Key(cfg, "mcf_m")
	k2 := Key(cfg, "mcf_m")
	if k1 != k2 {
		t.Fatalf("same job hashed differently: %s vs %s", k1, k2)
	}
	// Stored results and perfbench/testdata/golden.json are keyed by this
	// exact string: a change to the canonical encoding must be deliberate
	// (see keyFormatVersion).
	if want := "97b3b7f7c0bba693b7a36e759034630e586473e0b769f9873e81eaec38c0c34b"; k1 != want {
		t.Errorf("Key(DefaultConfig, mcf_m) = %s, want %s", k1, want)
	}
	if kw := Key(cfg, "lbm_m"); kw == k1 {
		t.Error("different workloads share a key")
	}
	mod := cfg
	mod.Seed++
	if km := Key(mod, "mcf_m"); km == k1 {
		t.Error("different seeds share a key")
	}
	mod = cfg
	mod.Scheme = sim.SchemeIdeal
	if km := Key(mod, "mcf_m"); km == k1 {
		t.Error("different schemes share a key")
	}
}

// TestShardedKeyIgnoresShards checks that the frozen v1 key shape still
// carries the old warmup fields before the seed and ends in the old
// execution-engine fields, all pinned at zero, for a non-default config:
// keys written when those fields existed (and were zero in every key) are
// the keys computed now.
func TestShardedKeyIgnoresShards(t *testing.T) {
	a := quickConfig(sim.SchemeGCP)
	cfgJSON, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"workload":"mcf_m","config":` +
		strings.Replace(strings.TrimSuffix(string(cfgJSON), "}"), `,"Seed":`, `,"WarmupCycles":0,"WarmupScheme":0,"Seed":`, 1) +
		`,"Shards":0,"ShardHorizon":0,"ShardStaticLookahead":false}}`
	if got := string(Canonical(a, "mcf_m")); got != want {
		t.Errorf("Canonical does not encode the frozen v1 shape:\n got %s\nwant %s", got, want)
	}
	sum := sha256.Sum256([]byte(want))
	if Key(a, "mcf_m") != hex.EncodeToString(sum[:]) {
		t.Error("Key is not the SHA-256 of the v1 encoding with zeroed warmup and shard fields")
	}
	if Key(a, "mcf_m") == Key(a, "lbm_m") {
		t.Error("distinct workloads share a key")
	}
}

func TestCanonicalRoundTripsConfig(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.HalfStripe = true
	cfg.GCPEff = 0.55
	b1 := Canonical(cfg, "mix_1")
	b2 := Canonical(cfg, "mix_1")
	if string(b1) != string(b2) {
		t.Fatal("canonical serialization is not byte-deterministic")
	}
}
