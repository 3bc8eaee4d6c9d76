package system

import (
	"reflect"
	"testing"

	"fpb/internal/ckpt"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// warmTestCfg is a small-but-real warmup configuration: long enough for
// warmup to push writes through the PCM array, short enough for the matrix
// tests below.
func warmTestCfg(scheme sim.Scheme) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	cfg.InstrPerCore = 6000
	cfg.WarmupCycles = 60_000
	cfg.WarmupScheme = sim.SchemeDIMMChip
	return cfg
}

// captureImage runs cfg cold and returns (result, barrier image).
func captureImage(t *testing.T, cfg sim.Config, wl string) (Result, []byte) {
	t.Helper()
	w, err := workload.ByName(wl, cfg.Cores)
	if err != nil {
		t.Fatalf("workload %s: %v", wl, err)
	}
	sys, err := Build(cfg, w)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var img []byte
	sys.SetBarrierHook(func(s *System) { img = s.EncodeCheckpoint() })
	res := sys.Run()
	res.Workload = wl
	sys.Release()
	if img == nil {
		t.Fatalf("barrier hook never fired (WarmupCycles %d)", cfg.WarmupCycles)
	}
	return res, img
}

// TestCheckpointRestoreBitIdentical is the core guarantee: a run restored
// from a barrier checkpoint produces a Result deep-equal (every metric, every
// registry series) to the uninterrupted run that produced the image — across
// the policy dimensions the restore path has to rebind (scheme, mapping,
// Multi-RESET, WC/WP, PWL).
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	cfgs := []func() sim.Config{
		func() sim.Config { return warmTestCfg(sim.SchemeDIMMChip) },
		func() sim.Config {
			cfg := warmTestCfg(sim.SchemeGCPIPMMR)
			cfg.CellMapping = sim.MapBIM
			cfg.WriteCancellation = true
			cfg.WritePausing = true
			cfg.PWL = true
			return cfg
		},
	}
	for _, mk := range cfgs {
		cfg := mk()
		cold, img := captureImage(t, cfg, "mcf_m")
		sys, err := RestoreSystem(mk(), "mcf_m", img)
		if err != nil {
			t.Fatalf("%s: restore: %v", cfg.Scheme, err)
		}
		res := sys.Run()
		res.Workload = "mcf_m"
		sys.Release()
		if !reflect.DeepEqual(cold, res) {
			t.Errorf("%s: restored run diverged from cold run:\n  cold:     %+v\n  restored: %+v",
				cfg.Scheme, cold, res)
		}
	}
}

// TestCheckpointDeterminismMatrix checks the restore guarantee on a second
// point of the grid — a multiprogrammed workload under GCP+IPM: the restored
// run must match the cold run that produced the image exactly.
func TestCheckpointDeterminismMatrix(t *testing.T) {
	cfg := warmTestCfg(sim.SchemeGCPIPM)
	cold, img := captureImage(t, cfg, "mix_1")
	sys, err := RestoreSystem(cfg, "mix_1", img)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res := sys.Run()
	res.Workload = "mix_1"
	sys.Release()
	if !reflect.DeepEqual(cold, res) {
		t.Errorf("restored run diverged from cold run:\n  cold:     %+v\n  restored: %+v", cold, res)
	}
}

// TestCheckpointExactResume is the extend-a-run path: one image serves every
// measurement budget, so restoring with a doubled InstrPerCore must equal a
// cold warmup run at the doubled budget. (The checkpoint key zeroes
// InstrPerCore for exactly this reason.)
func TestCheckpointExactResume(t *testing.T) {
	short := warmTestCfg(sim.SchemeDIMMChip)
	short.InstrPerCore = 3000
	_, img := captureImage(t, short, "mcf_m")

	long := warmTestCfg(sim.SchemeDIMMChip)
	long.InstrPerCore = 6000
	cold, err := RunWorkload(long, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := RestoreSystem(long, "mcf_m", img)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	res := sys.Run()
	res.Workload = "mcf_m"
	sys.Release()
	if !reflect.DeepEqual(cold, res) {
		t.Errorf("extended run from short-budget image diverged from cold long run:\n  cold: %+v\n  ext:  %+v", cold, res)
	}
}

// TestCheckpointKeySharing pins the shared-prefix contract: grid points that
// differ only in measurement policy share a checkpoint key; changes to the
// warmup phase, structure, seed or workload do not.
func TestCheckpointKeySharing(t *testing.T) {
	base := warmTestCfg(sim.SchemeDIMMChip)
	key := CheckpointKey(base, "mcf_m")

	same := []func(*sim.Config){
		func(c *sim.Config) { c.Scheme = sim.SchemeGCPIPMMR },
		func(c *sim.Config) { c.CellMapping = sim.MapVIM },
		func(c *sim.Config) { c.MultiResetSplit = 5; c.MultiResetAlways = true },
		func(c *sim.Config) { c.WriteCancellation = true; c.WritePausing = true },
		func(c *sim.Config) { c.PWL = true; c.PWLShiftWrites = 16 },
		func(c *sim.Config) { c.HalfStripe = true },
		func(c *sim.Config) { c.WriteQueueSched = 4 },
		func(c *sim.Config) { c.InstrPerCore = 123456 },
	}
	for i, mut := range same {
		cfg := warmTestCfg(sim.SchemeDIMMChip)
		mut(&cfg)
		if got := CheckpointKey(cfg, "mcf_m"); got != key {
			t.Errorf("variant %d: measurement-only change altered the checkpoint key", i)
		}
	}
	diff := []func(*sim.Config){
		func(c *sim.Config) { c.WarmupCycles = 70_000 },
		func(c *sim.Config) { c.WarmupScheme = sim.SchemeIdeal },
		func(c *sim.Config) { c.Seed = 7 },
		func(c *sim.Config) { c.DIMMTokens = 400 },
	}
	for i, mut := range diff {
		cfg := warmTestCfg(sim.SchemeDIMMChip)
		mut(&cfg)
		if got := CheckpointKey(cfg, "mcf_m"); got == key {
			t.Errorf("variant %d: warmup-relevant change did not alter the checkpoint key", i)
		}
	}
	if CheckpointKey(base, "mix_1") == key {
		t.Error("different workload shares a checkpoint key")
	}
}

// TestRunWorkloadCheckpointed exercises the store-coordinated entry point:
// the first run produces the image cold, later runs — including different
// measurement schemes — warm-start from it, and every result equals its own
// cold run.
func TestRunWorkloadCheckpointed(t *testing.T) {
	store, err := ckpt.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := warmTestCfg(sim.SchemeDIMMChip)
	coldA, err := RunWorkload(a, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	res, warm, err := RunWorkloadCheckpointed(a, "mcf_m", store)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("first run reported a warm start against an empty store")
	}
	if !reflect.DeepEqual(coldA, res) {
		t.Error("producing run diverged from plain cold run")
	}
	if n, _ := store.Len(); n != 1 {
		t.Fatalf("store holds %d images, want 1", n)
	}

	// Same grid point again: warm, identical.
	res, warm, err = RunWorkloadCheckpointed(a, "mcf_m", store)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("second run did not warm-start")
	}
	if !reflect.DeepEqual(coldA, res) {
		t.Error("warm-started run diverged from cold run")
	}

	// Different measurement scheme, same warmup prefix: shares the image.
	b := warmTestCfg(sim.SchemeGCPIPMMR)
	coldB, err := RunWorkload(b, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	res, warm, err = RunWorkloadCheckpointed(b, "mcf_m", store)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Error("sibling grid point did not warm-start from the shared prefix")
	}
	if !reflect.DeepEqual(coldB, res) {
		t.Error("warm-started sibling diverged from its cold run")
	}
	if n, _ := store.Len(); n != 1 {
		t.Errorf("store holds %d images, want 1 (prefix not shared)", n)
	}

	// No warmup phase: falls back to a plain run, never touches the store.
	plain := sim.DefaultConfig()
	plain.InstrPerCore = 3000
	res, warm, err = RunWorkloadCheckpointed(plain, "mcf_m", store)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Error("warmup-free run reported a warm start")
	}
	coldP, err := RunWorkload(plain, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldP, res) {
		t.Error("warmup-free fallback diverged from RunWorkload")
	}
}

// TestRestoreSystemRejects covers the loud-failure paths: corrupt images,
// wrong workload, wrong warmup declaration, no warmup declaration.
func TestRestoreSystemRejects(t *testing.T) {
	cfg := warmTestCfg(sim.SchemeDIMMChip)
	_, img := captureImage(t, cfg, "mcf_m")

	if _, err := RestoreSystem(cfg, "mix_1", img); err == nil {
		t.Error("restore under a different workload succeeded")
	}
	bad := warmTestCfg(sim.SchemeDIMMChip)
	bad.WarmupCycles = 999
	if _, err := RestoreSystem(bad, "mcf_m", img); err == nil {
		t.Error("restore under a different WarmupCycles succeeded")
	}
	none := warmTestCfg(sim.SchemeDIMMChip)
	none.WarmupCycles = 0
	if _, err := RestoreSystem(none, "mcf_m", img); err == nil {
		t.Error("restore into a warmup-free config succeeded")
	}
	flip := append([]byte(nil), img...)
	flip[len(flip)/2] ^= 0x40
	if _, err := RestoreSystem(cfg, "mcf_m", flip); err == nil {
		t.Error("restore of a corrupted image succeeded")
	}
	if _, err := RestoreSystem(cfg, "mcf_m", img[:len(img)-9]); err == nil {
		t.Error("restore of a truncated image succeeded")
	}
}
