package system

import (
	"reflect"
	"sync"
	"testing"

	"fpb/internal/cache"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// quickConfig shrinks the run for unit tests while keeping the memory
// subsystem realistic.
func quickConfig(scheme sim.Scheme) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	cfg.InstrPerCore = 40_000
	cfg.L3SizeMB = 8 // faster prefill
	return cfg
}

func TestRunWorkloadBasics(t *testing.T) {
	res, err := RunWorkload(quickConfig(sim.SchemeDIMMChip), "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI <= 1 {
		t.Errorf("CPI = %.2f, must exceed 1 for a memory-bound workload", res.CPI)
	}
	if res.Writes == 0 || res.DemandReads == 0 {
		t.Fatal("no memory traffic")
	}
	if res.Cycles == 0 || res.Instrs < 8*40_000 {
		t.Errorf("run too short: %d cycles, %d instrs", res.Cycles, res.Instrs)
	}
	if res.AvgCellChanges <= 0 {
		t.Error("no cell-change telemetry")
	}
}

func TestPKICalibration(t *testing.T) {
	// Measured PCM-level R/W-PKI must track Table 2 within a modest
	// tolerance — this is the workload-substitution acceptance test.
	for _, name := range []string{"mcf_m", "lbm_m", "bwa_m"} {
		cfg := quickConfig(sim.SchemeIdeal)
		cfg.InstrPerCore = 60_000
		res, err := RunWorkload(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		wl, _ := workload.ByName(name, cfg.Cores)
		if rel(res.MeasRPKI, wl.TargetRPKI()) > 0.25 {
			t.Errorf("%s: measured RPKI %.2f vs target %.2f", name, res.MeasRPKI, wl.TargetRPKI())
		}
		if rel(res.MeasWPKI, wl.TargetWPKI()) > 0.30 {
			t.Errorf("%s: measured WPKI %.2f vs target %.2f", name, res.MeasWPKI, wl.TargetWPKI())
		}
	}
}

func rel(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestSchemeOrderingMatchesPaper(t *testing.T) {
	// The paper's central qualitative result: Ideal beats DIMM-only
	// beats DIMM+chip, and full FPB recovers most of the gap.
	cpi := map[sim.Scheme]float64{}
	for _, s := range []sim.Scheme{sim.SchemeIdeal, sim.SchemeDIMMOnly, sim.SchemeDIMMChip, sim.SchemeGCPIPMMR} {
		cfg := quickConfig(s)
		if s == sim.SchemeGCPIPMMR {
			cfg.CellMapping = sim.MapBIM
		}
		res, err := RunWorkload(cfg, "mcf_m")
		if err != nil {
			t.Fatal(err)
		}
		cpi[s] = res.CPI
	}
	if !(cpi[sim.SchemeIdeal] < cpi[sim.SchemeDIMMOnly]) {
		t.Errorf("Ideal CPI %.1f not better than DIMM-only %.1f",
			cpi[sim.SchemeIdeal], cpi[sim.SchemeDIMMOnly])
	}
	if !(cpi[sim.SchemeDIMMOnly] < cpi[sim.SchemeDIMMChip]) {
		t.Errorf("DIMM-only CPI %.1f not better than DIMM+chip %.1f",
			cpi[sim.SchemeDIMMOnly], cpi[sim.SchemeDIMMChip])
	}
	if !(cpi[sim.SchemeGCPIPMMR] < cpi[sim.SchemeDIMMChip]) {
		t.Errorf("FPB CPI %.1f not better than DIMM+chip %.1f",
			cpi[sim.SchemeGCPIPMMR], cpi[sim.SchemeDIMMChip])
	}
}

func TestFPBImprovesWriteThroughput(t *testing.T) {
	base, err := RunWorkload(quickConfig(sim.SchemeDIMMChip), "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(sim.SchemeGCPIPMMR)
	cfg.CellMapping = sim.MapBIM
	fpb, err := RunWorkload(cfg, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	gain := fpb.WriteThroughput / base.WriteThroughput
	if gain < 1.3 {
		t.Errorf("FPB write-throughput gain %.2fx, want > 1.3x (paper: 3.4x)", gain)
	}
}

func TestBurstFractionReported(t *testing.T) {
	res, err := RunWorkload(quickConfig(sim.SchemeDIMMChip), "lbm_m")
	if err != nil {
		t.Fatal(err)
	}
	if res.BurstFraction <= 0 || res.BurstFraction > 1 {
		t.Errorf("burst fraction %.3f outside (0,1]", res.BurstFraction)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := RunWorkload(quickConfig(sim.SchemeDIMMChip), "ast_m")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(quickConfig(sim.SchemeDIMMChip), "ast_m")
	if err != nil {
		t.Fatal(err)
	}
	if a.CPI != b.CPI || a.Writes != b.Writes || a.Cycles != b.Cycles {
		t.Errorf("same-seed runs differ: CPI %.4f vs %.4f", a.CPI, b.CPI)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfgA := quickConfig(sim.SchemeDIMMChip)
	cfgB := quickConfig(sim.SchemeDIMMChip)
	cfgB.Seed = 999
	a, _ := RunWorkload(cfgA, "ast_m")
	b, _ := RunWorkload(cfgB, "ast_m")
	if a.CPI == b.CPI {
		t.Error("different seeds produced identical CPI (suspicious)")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	cfg := quickConfig(sim.SchemeDIMMChip)
	if _, err := RunWorkload(cfg, "not_a_workload"); err == nil {
		t.Error("unknown workload accepted")
	}
	wl, _ := workload.ByName("ast_m", 4) // wrong core count
	if _, err := Build(cfg, wl); err == nil {
		t.Error("core-count mismatch accepted")
	}
	cfg.Cores = 0
	wl8, _ := workload.ByName("ast_m", 8)
	if _, err := Build(cfg, wl8); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGCPTelemetryFlows(t *testing.T) {
	cfg := quickConfig(sim.SchemeGCP)
	cfg.CellMapping = sim.MapNaive // clusters changes → GCP engaged
	res, err := RunWorkload(cfg, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxGCPTokens <= 0 {
		t.Error("GCP never engaged under NE mapping on a write-heavy workload")
	}
}

func TestSpeedupHelper(t *testing.T) {
	if s := Speedup(Result{CPI: 10}, Result{CPI: 5}); s != 2 {
		t.Errorf("Speedup = %g, want 2", s)
	}
	if s := Speedup(Result{CPI: 10}, Result{}); s != 0 {
		t.Error("zero-CPI tech must yield 0")
	}
}

func TestWCWPIntegration(t *testing.T) {
	cfg := quickConfig(sim.SchemeGCPIPMMR)
	cfg.CellMapping = sim.MapBIM
	cfg.WriteCancellation = true
	cfg.WritePausing = true
	cfg.WriteTruncation = true
	cfg.ReadQueueEntries = 40
	cfg.WriteQueueEntries = 40
	res, err := RunWorkload(cfg, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	if res.WCCancels+res.WPPauses == 0 {
		t.Error("WC/WP never triggered on a write-heavy workload")
	}
}

// TestPrefillSnapshotBound checks the snapshot cache's byte bound against
// the default geometry: it must hold at least 128 snapshots, so a
// default-geometry figure sweep (Fig. 18 prefills 86 distinct cores) never
// evicts.
func TestPrefillSnapshotBound(t *testing.T) {
	cfg := sim.DefaultConfig()
	h := cache.NewHierarchy(&cfg)
	defer h.Release()
	if n := maxPrefillSnapshotBytes / h.MetaBytes(); n < 128 {
		t.Errorf("the bound holds %d default-geometry snapshots, want at least 128", n)
	}
}

// TestPrefilledHierarchyConcurrent has several goroutines miss the snapshot
// cache on the same key at once. Each must get the identical baseline, and
// the cache's byte count must still equal the sum over its entries.
func TestPrefilledHierarchyConcurrent(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L3SizeMB = 8
	cfg.Seed = 0x5eed // a key no other test prefills
	wl, err := workload.ByName("lbm_m", cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	prof := wl.Cores[0]
	bases := make([]*cache.Hierarchy, 4)
	var wg sync.WaitGroup
	for g := range bases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
			h, base := prefilledHierarchy(&cfg, gen, prof)
			h.Release()
			bases[g] = base
		}()
	}
	wg.Wait()
	for g, b := range bases[1:] {
		if !reflect.DeepEqual(b.L3(), bases[0].L3()) {
			t.Errorf("goroutine %d got a different L3 baseline", g+1)
		}
	}
	c := &prefillSnapshots
	c.Lock()
	defer c.Unlock()
	sum := 0
	for _, e := range c.m {
		sum += e.hier.MetaBytes()
	}
	if sum != c.bytes {
		t.Errorf("snapshot cache counts %d bytes, its entries hold %d", c.bytes, sum)
	}
}
