package core

import (
	"math"
	"testing"

	"fpb/internal/pcm"
	"fpb/internal/sim"
)

// manualProfile builds a WriteProfile by hand so tests control the exact
// iteration behaviour (the paper's Fig. 5/6 walkthroughs).
func manualProfile(changed int, remainAfter []int, chips int) *pcm.WriteProfile {
	p := &pcm.WriteProfile{
		Changed:    changed,
		TotalIters: len(remainAfter),
		PerChip:    make([]int, chips),
	}
	// Spread changes round-robin across chips.
	for i := 0; i < changed; i++ {
		p.PerChip[i%chips]++
	}
	p.RemainTotal = append([]int{changed}, remainAfter...)
	p.RemainPerChip = make([][]int, len(p.RemainTotal))
	for k, total := range p.RemainTotal {
		per := make([]int, chips)
		for i := 0; i < total; i++ {
			per[i%chips]++
		}
		p.RemainPerChip[k] = per
	}
	p.MRGroups = make([][][]int, pcm.MaxMultiResetSplit+1)
	for m := 2; m <= pcm.MaxMultiResetSplit; m++ {
		g := make([][]int, chips)
		for c := range g {
			g[c] = make([]int, m)
			for i := 0; i < p.PerChip[c]; i++ {
				// Offset the round-robin by chip so per-chip
				// remainders spread across groups and group totals
				// stay globally balanced.
				g[c][(i+c)%m]++
			}
		}
		p.MRGroups[m] = g
	}
	return p
}

// fig5Config reproduces the Section 3 discussion setting: only the DIMM
// budget matters (chip budgets non-binding), 80 available power tokens,
// SET power = RESET/2.
func fig5Config(scheme sim.Scheme) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	cfg.DIMMTokens = 80
	cfg.LocalScale = 100 // chip budgets effectively unlimited
	cfg.SetPowerRatio = 0.5
	return cfg
}

// wrA is WR-A of Fig. 5: 50 cell changes, 1 RESET + 3 SETs; 2 cells finish
// at RESET, then 22, 14, 12 per SET iteration.
func wrA(chips int) *pcm.WriteProfile {
	return manualProfile(50, []int{48, 26, 12, 0}, chips)
}

func TestIPMAllocationsMatchFigure5(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM)
	pl := NewPlanner(&cfg)
	plan := pl.Plan(&WritePlan{}, wrA(cfg.Chips))
	if plan.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1", plan.Rounds)
	}
	// Paper Fig. 5(b): allocated tokens 50, 25, 24, 13.
	want := []float64{50, 25, 24, 13}
	if len(plan.Phases) != len(want) {
		t.Fatalf("phases = %d, want %d", len(plan.Phases), len(want))
	}
	for i, w := range want {
		if got := plan.Phases[i].Demand.DIMM; math.Abs(got-w) > 1e-9 {
			t.Errorf("iteration %d allocation = %g, want %g (Fig. 5b)", i+1, got, w)
		}
	}
	if !plan.Phases[0].Reset || plan.Phases[1].Reset {
		t.Error("RESET flags wrong")
	}
}

func TestPerWritePlanHoldsPeakForWholeWrite(t *testing.T) {
	cfg := fig5Config(sim.SchemeDIMMOnly)
	pl := NewPlanner(&cfg)
	prof := wrA(cfg.Chips)
	plan := pl.Plan(&WritePlan{}, prof)
	if len(plan.Phases) != 1 {
		t.Fatalf("per-write plan has %d phases, want 1", len(plan.Phases))
	}
	if plan.Phases[0].Demand.DIMM != 50 {
		t.Errorf("demand = %g, want 50", plan.Phases[0].Demand.DIMM)
	}
	wantDur := cfg.ResetCycles + 3*cfg.SetCycles
	if plan.Phases[0].Duration != wantDur {
		t.Errorf("duration = %d, want %d", plan.Phases[0].Duration, wantDur)
	}
	if plan.TotalDuration() != wantDur {
		t.Errorf("TotalDuration = %d, want %d", plan.TotalDuration(), wantDur)
	}
}

func TestDIMMOnlyPlanHasNoChipDemand(t *testing.T) {
	cfg := fig5Config(sim.SchemeDIMMOnly)
	pl := NewPlanner(&cfg)
	plan := pl.Plan(&WritePlan{}, wrA(cfg.Chips))
	if plan.Phases[0].Demand.PerChip != nil {
		t.Error("DIMM-only plan carries per-chip demand")
	}
	cfgChip := fig5Config(sim.SchemeDIMMChip)
	plan2 := NewPlanner(&cfgChip).Plan(&WritePlan{}, wrA(cfgChip.Chips))
	if plan2.Phases[0].Demand.PerChip == nil {
		t.Error("DIMM+chip plan missing per-chip demand")
	}
}

func TestIdealPlanHasZeroDemand(t *testing.T) {
	cfg := fig5Config(sim.SchemeIdeal)
	pl := NewPlanner(&cfg)
	plan := pl.Plan(&WritePlan{}, wrA(cfg.Chips))
	if len(plan.Phases) != 1 || plan.Phases[0].Demand.DIMM != 0 {
		t.Error("Ideal plan must be a single zero-demand phase")
	}
	if plan.TotalDuration() != cfg.ResetCycles+3*cfg.SetCycles {
		t.Error("Ideal plan duration wrong")
	}
}

func TestMultiResetLowersPeakDemand(t *testing.T) {
	// Fig. 6: WR-B changes 60 cells; a single RESET needs 60 tokens but a
	// 2-way split needs only 30 per sub-RESET.
	cfg := fig5Config(sim.SchemeIPMMR)
	pl := NewPlanner(&cfg)
	wrB := manualProfile(60, []int{58, 30, 14, 6, 0}, cfg.Chips)
	base := pl.Plan(&WritePlan{}, wrB)
	mr := pl.PlanMR(&WritePlan{}, wrB, 2)
	if base.PeakDIMMDemand() != 60 {
		t.Errorf("base peak = %g, want 60", base.PeakDIMMDemand())
	}
	if got := mr.PeakDIMMDemand(); got != 30 {
		t.Errorf("MR2 peak = %g, want 30 (Fig. 6b)", got)
	}
	// Latency cost: m-1 extra RESET slots.
	if mr.TotalDuration() != base.TotalDuration()+cfg.ResetCycles {
		t.Errorf("MR2 duration %d, want base+1 RESET %d",
			mr.TotalDuration(), base.TotalDuration()+cfg.ResetCycles)
	}
	if mr.MRSplit != 2 {
		t.Errorf("MRSplit = %d", mr.MRSplit)
	}
	// Sub-RESET demands partition the full RESET demand.
	sum := 0.0
	for _, ph := range mr.Phases {
		if ph.Reset {
			sum += ph.Demand.DIMM
		}
	}
	if sum != 60 {
		t.Errorf("sub-RESET demands sum to %g, want 60", sum)
	}
}

func TestPlanMRRangePanics(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPMMR)
	pl := NewPlanner(&cfg)
	defer func() {
		if recover() == nil {
			t.Error("PlanMR(1) did not panic")
		}
	}()
	pl.PlanMR(&WritePlan{}, wrA(cfg.Chips), 1)
}

func TestIPMDemandNonIncreasing(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM)
	cfg.DIMMTokens = 2000
	pl := NewPlanner(&cfg)
	b := pcm.NewBuilder(&cfg, sim.NewRNG(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + trial*7
		cells := make([]int, 0, n)
		for i := 0; i < n && i < cfg.CellsPerLine(); i++ {
			cells = append(cells, i)
		}
		prof := b.BuildFromCells(&pcm.WriteProfile{}, 0, cells, nil, func(c int) int { return c % cfg.Chips }, false)
		plan := pl.Plan(&WritePlan{}, prof)
		for i := 1; i < len(plan.Phases); i++ {
			if plan.Phases[i].Demand.DIMM > plan.Phases[i-1].Demand.DIMM+1e-9 {
				t.Fatalf("trial %d: IPM demand increased at phase %d", trial, i)
			}
		}
	}
}

func TestIPMTokenHoldingNeverExceedsPerWrite(t *testing.T) {
	// The whole point of IPM: integrated token-cycles held must be at
	// most the per-write heuristic's allocation.
	cfgIPM := fig5Config(sim.SchemeIPM)
	cfgPW := fig5Config(sim.SchemeDIMMChip)
	prof := wrA(8)
	ipm := NewPlanner(&cfgIPM).Plan(&WritePlan{}, prof)
	pw := NewPlanner(&cfgPW).Plan(&WritePlan{}, prof)
	hold := func(p *WritePlan) float64 {
		total := 0.0
		for _, ph := range p.Phases {
			total += ph.Demand.DIMM * float64(ph.Duration)
		}
		return total
	}
	if hold(ipm) >= hold(pw) {
		t.Errorf("IPM token-cycles %.0f not below per-write %.0f", hold(ipm), hold(pw))
	}
}

func TestMultiRoundTriggeredByHotChip(t *testing.T) {
	// 128 changed cells all on chip 0 (NE mapping of a hot word region)
	// exceed the 66.5-token LCP; without a GCP the write must run in two
	// rounds, as Section 3.2's multi-round discussion describes.
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeDIMMChip
	prof := &pcm.WriteProfile{
		Changed:       128,
		TotalIters:    2,
		PerChip:       []int{128, 0, 0, 0, 0, 0, 0, 0},
		RemainTotal:   []int{128, 100, 0},
		RemainPerChip: [][]int{{128, 0, 0, 0, 0, 0, 0, 0}, {100, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}},
	}
	plan := NewPlanner(&cfg).Plan(&WritePlan{}, prof)
	if plan.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2 for a 128-cell single-chip write", plan.Rounds)
	}
	for _, ph := range plan.Phases {
		if ph.Demand.PerChip[0] > cfg.LCPTokens()+1e-9 {
			t.Errorf("phase demand %.1f exceeds chip capacity %.1f", ph.Demand.PerChip[0], cfg.LCPTokens())
		}
	}
	// The same write under a GCP fits in one round: the GCP (66.5 output
	// tokens) cannot cover 128 either, so still two rounds — but halving
	// to 64 fits the LCP directly.
	cfg.Scheme = sim.SchemeGCP
	plan2 := NewPlanner(&cfg).Plan(&WritePlan{}, prof)
	if plan2.Rounds != 2 {
		t.Errorf("GCP Rounds = %d, want 2 (64-token halves fit the LCP)", plan2.Rounds)
	}
}

func TestMultiRoundDIMMOnly(t *testing.T) {
	// 1024 changed cells against a 560-token DIMM: two rounds
	// (Section 3.2: "the line is written in two rounds").
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeDIMMOnly
	prof := manualProfile(1024, []int{900, 400, 0}, cfg.Chips)
	plan := NewPlanner(&cfg).Plan(&WritePlan{}, prof)
	if plan.Rounds != 2 {
		t.Fatalf("Rounds = %d, want 2", plan.Rounds)
	}
	if got := plan.PeakDIMMDemand(); got != 512 {
		t.Errorf("peak demand = %g, want 512", got)
	}
	// Duration doubles: the rounds do not overlap. TotalIters is 3
	// (RESET + 2 SETs) for the 3-entry remain list.
	single := cfg.ResetCycles + 2*cfg.SetCycles
	if plan.TotalDuration() != 2*single {
		t.Errorf("duration = %d, want %d", plan.TotalDuration(), 2*single)
	}
}

func TestZeroChangeWritePlan(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeDIMMChip
	prof := manualProfile(0, []int{0}, cfg.Chips)
	plan := NewPlanner(&cfg).Plan(&WritePlan{}, prof)
	if plan.Rounds != 1 || plan.PeakDIMMDemand() != 0 {
		t.Error("zero-change write should be a free single round")
	}
}
