package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"fpb/internal/sim"
)

// keyFormatVersion is bumped whenever the meaning of an existing config
// field changes (new fields change the canonical encoding by themselves).
// It invalidates every previously stored result key.
const keyFormatVersion = 1

// canonicalJob is the serialized identity of one simulation. sim.Config is
// a flat struct of scalars, so encoding/json renders it byte-deterministically
// in declaration order.
type canonicalJob struct {
	Version  int      `json:"v"`
	Workload string   `json:"workload"`
	Config   configV1 `json:"config"`
}

// configV1 freezes the key format's config shape: version-1 keys were first
// computed when sim.Config ended in two warmup fields, the seed and three
// execution-engine fields, all but the seed always zero in a key.
// encoding/json writes the embedded Config's fields first, minus the Seed
// this struct shadows, and these after them, so the bytes — and every stored
// result key — stay what they were.
type configV1 struct {
	sim.Config
	WarmupCycles         uint64
	WarmupScheme         int
	Seed                 uint64
	Shards, ShardHorizon int
	ShardStaticLookahead bool
}

// Canonical returns the canonical serialization of one (config, workload)
// simulation: the byte string two jobs share exactly when they are the same
// simulation. It is the preimage of Key.
func Canonical(cfg sim.Config, workload string) []byte {
	b, err := json.Marshal(canonicalJob{Version: keyFormatVersion, Workload: workload, Config: configV1{Config: cfg, Seed: cfg.Seed}})
	if err != nil {
		// sim.Config holds only scalars; Marshal cannot fail.
		panic("system: canonical encoding: " + err.Error())
	}
	return b
}

// Key returns the content address of one (config, workload) simulation: the
// hex SHA-256 of its canonical serialization. Every deterministic result
// cache in the tree (exp.Runner, the fpbd result store) keys on it.
func Key(cfg sim.Config, workload string) string {
	sum := sha256.Sum256(Canonical(cfg, workload))
	return hex.EncodeToString(sum[:])
}
