package system

import (
	"crypto/sha256"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestPrefillSnapshotBound checks snapshot sizes at each of Fig. 20's L3
// sizes, for mcf_m core 0, whose fixed-footprint streams fill the L3 like
// every other app's and lap their regions at 128 MB, and cop_m core 0, a
// STREAM app whose regions grow with the L3. A snapshot holds no way
// array: its MetaBytes are the L3's insert positions, 4 bytes per insert,
// and one owned bit per set of each level, less than a plain hierarchy,
// the deep copy each simulation once took. The bound must hold at least
// 400 default-geometry snapshots, so a default-geometry figure sweep
// (Fig. 18 prefills 86 distinct cores) never evicts.
func TestPrefillSnapshotBound(t *testing.T) {
	defaultMB := sim.DefaultConfig().L3SizeMB
	for _, l3MB := range []int{8, 16, 32, 128} {
		cfg := sim.DefaultConfig()
		cfg.L3SizeMB = l3MB
		plain := cache.NewHierarchy(&cfg)
		bitsets := 0
		for _, l := range [][3]int{
			{cfg.L1SizeKB << 10, cfg.L1LineB, cfg.L1Ways},
			{cfg.L2SizeKB << 10, cfg.L2LineB, cfg.L2Ways},
			{cfg.L3SizeMB << 20, cfg.L3LineB, cfg.L3Ways},
		} {
			bitsets += (l[0]/(l[1]*l[2]) + 63) / 64 * 8
		}
		for _, name := range []string{"mcf_m", "cop_m"} {
			wl, err := workload.ByName(name, cfg.Cores)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGenerator(wl.Cores[0], &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
			streams, _ := streamInserts(&cfg, gen, wl.Cores[0])
			snap := prefill(&cfg, gen, wl.Cores[0])
			size := snap.MetaBytes()
			t.Logf("%d MB, %s: a snapshot holds %d bytes, a plain hierarchy %d", l3MB, name, size, plain.MetaBytes())
			if want := 4*int(streams[0].N+streams[1].N) + bitsets; size != want || size >= plain.MetaBytes() {
				t.Errorf("%d MB, %s: a snapshot holds %d bytes, want %d (4 per insert and the owned bitsets) and under a plain hierarchy's %d",
					l3MB, name, size, want, plain.MetaBytes())
			}
			if n := maxPrefillSnapshotBytes / size; l3MB == defaultMB && n < 400 {
				t.Errorf("the bound holds %d default-geometry %s snapshots of %d bytes, want at least 400", n, name, size)
			}
			snap.Release()
		}
		plain.Release()
	}
}

// TestPrefilledHierarchyConcurrent has several goroutines ask at once for
// a key the snapshot cache lacks, so that one prefills it and the others
// wait for its snapshot, then several children of the published snapshot
// run at once, each on its own access stream. Exactly one prefill must
// run, every goroutine must start from the identical hierarchy, a child
// must end exactly where a hierarchy of its own from prefill ends after
// the same stream, the snapshot must be unchanged by its children, and
// the cache's byte count must still equal the sum over its entries. The
// test first drops the key, should an earlier run have left it, so that
// -count=N runs check the misses too. The snapshot holds no set, so
// children build every set they touch, at every level, from the shared
// parent. It runs at three L3 sizes: the hot region's lines reach every L3
// set at 8 MB and a quarter of them at 32 MB, and at 128 MB lbm_m's
// streams lap their regions, so children build L3 sets by replaying their
// inserts. Under -race this also checks that children read and build from
// their shared parent without racing.
func TestPrefilledHierarchyConcurrent(t *testing.T) {
	for _, l3MB := range []int{8, 32, 128} {
		cfg := sim.DefaultConfig()
		cfg.L3SizeMB = l3MB
		cfg.Seed = 0x5eed // a key no other test prefills
		prefilledConcurrently(t, cfg)
	}
}

// prefilledConcurrently runs TestPrefilledHierarchyConcurrent's checks at
// cfg's geometry.
func prefilledConcurrently(t *testing.T, cfg sim.Config) {
	wl, err := workload.ByName("lbm_m", cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	prof := wl.Cores[0]
	newGen := func() *workload.Generator {
		return workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
	}
	want := prefill(&cfg, newGen(), prof).Digest()
	k := newPrefillKey(&cfg, newGen(), prof)
	c := &prefillSnapshots
	c.Lock()
	if e := c.m[k]; e != nil { // left by an earlier run of the test
		c.bytes -= e.hier.MetaBytes()
		delete(c.m, k)
	}
	c.Unlock()
	// stream has goroutine g access the hot region and the stream lines
	// around the cursors.
	stream := func(g int, h *cache.Hierarchy) {
		gen := newGen()
		hot, hotSpan := gen.HotRegion()
		rStart, _ := gen.StreamReadRegion()
		wStart, _ := gen.StreamWriteRegion()
		r := sim.NewRNG(uint64(g))
		for i := 0; i < 20_000; i++ {
			switch r.Intn(3) {
			case 0:
				h.Access(hot+r.Uint64n(hotSpan), r.Intn(4) == 0)
			case 1:
				h.Access(rStart+(gen.ReadCursor()+r.Uint64n(4096))*uint64(cfg.L3LineB), false)
			default:
				h.Access(wStart+(gen.WriteCursor()+r.Uint64n(4096))*uint64(cfg.L3LineB), true)
			}
		}
	}
	for phase, what := range []string{"missing the snapshot cache", "reusing the snapshot"} {
		start := make([][sha256.Size]byte, 4)
		end := make([][sha256.Size]byte, 4)
		prefills := prefillsStarted()
		begin := make(chan struct{})
		var wg sync.WaitGroup
		for g := range start {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-begin
				h := prefilledHierarchy(&cfg, newGen(), prof)
				start[g] = h.Digest()
				stream(phase*len(start)+g, h)
				end[g] = h.Digest()
				h.Release()
			}()
		}
		close(begin)
		wg.Wait()
		if n, want := prefillsStarted()-prefills, uint64(1-phase); n != want {
			t.Errorf("%d MB, %s: %d prefills ran, want %d", cfg.L3SizeMB, what, n, want)
		}
		for g := range start {
			ref := prefill(&cfg, newGen(), prof).Child(&cfg)
			stream(phase*len(start)+g, ref)
			if start[g] != want {
				t.Errorf("%d MB, %s: goroutine %d got a different hierarchy", cfg.L3SizeMB, what, g)
			}
			if end[g] != ref.Digest() {
				t.Errorf("%d MB, %s: goroutine %d's child ended in a different state from its own prefill", cfg.L3SizeMB, what, g)
			}
		}
	}
	c.Lock()
	defer c.Unlock()
	sum := 0
	for _, e := range c.m {
		sum += e.hier.MetaBytes()
	}
	if sum != c.bytes {
		t.Errorf("%d MB: snapshot cache counts %d bytes, its entries hold %d", cfg.L3SizeMB, c.bytes, sum)
	}
	if e := c.m[k]; e == nil || e.hier.Digest() != want {
		t.Errorf("%d MB: the snapshot is gone or changed under its children", cfg.L3SizeMB)
	}
}

// prefillsStarted reads how many prefills the snapshot cache has started.
func prefillsStarted() uint64 {
	c := &prefillSnapshots
	c.Lock()
	defer c.Unlock()
	return c.prefills
}

// TestPrefillPanicReleasesWaiters: callers waiting for a key whose prefill
// panics must not wait forever. Each prefills the key itself and gets the
// same panic, and the key leaves the snapshot cache. An L1 line below
// sim.MinL1LineB, which Validate refuses, makes prefill panic.
func TestPrefillPanicReleasesWaiters(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.L1LineB = 32
	cfg.Seed = 0xbad // a key no other test prefills
	wl, err := workload.ByName("mcf_m", cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	prof := wl.Cores[0]
	newGen := func() *workload.Generator {
		return workload.NewGenerator(prof, &cfg, 0, sim.NewRNG(cfg.Seed).Derive(1000).Derive(1))
	}
	prefills := prefillsStarted()
	panics := make([]any, 4)
	begin := make(chan struct{})
	var wg sync.WaitGroup
	for g := range panics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[g] = recover() }()
			<-begin
			prefilledHierarchy(&cfg, newGen(), prof)
		}()
	}
	close(begin)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("callers still wait for a prefill that panicked")
	}
	for g, p := range panics {
		if p == nil {
			t.Errorf("goroutine %d did not panic", g)
		}
	}
	if n := prefillsStarted() - prefills; n != uint64(len(panics)) {
		t.Errorf("%d prefills ran, want one per caller (%d)", n, len(panics))
	}
	c := &prefillSnapshots
	c.Lock()
	defer c.Unlock()
	if _, ok := c.m[newPrefillKey(&cfg, newGen(), prof)]; ok {
		t.Error("the key of a panicked prefill stayed in the snapshot cache")
	}
}

// TestDeadlockPanicCarriesState: a spec that can never admit a write (a
// one-token DIMM budget) trips Run's deadlock guard. The panic value keeps
// its first line and carries the controller's state after it, and nothing
// is written to stdout, which a daemon uses for its structured log.
func TestDeadlockPanicCarriesState(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.DIMMTokens = 1
	cfg.InstrPerCore = 2000
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // the pipe is closed below
		printed <- b
	}()
	var p any
	func() {
		defer func() { p = recover() }()
		RunWorkload(cfg, "mcf_m")
	}()
	os.Stdout = stdout
	w.Close()
	if out := <-printed; len(out) > 0 {
		t.Errorf("the deadlock wrote %d bytes to stdout:\n%s", len(out), out)
	}
	msg, _ := p.(string)
	first, state, _ := strings.Cut(msg, "\n")
	if !strings.HasPrefix(first, "system: deadlock — ") || !strings.HasSuffix(first, "cores finished, no events pending") {
		t.Fatalf("panic %q, want the deadlock guard's", first)
	}
	if !strings.Contains(state, "wrq=") || !strings.Contains(state, "DIMM avail=") {
		t.Errorf("panic lacks the controller state:\n%s", msg)
	}
}
