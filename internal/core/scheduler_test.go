package core

import (
	"testing"

	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
)

func newSched(cfg *sim.Config) *Scheduler {
	return NewScheduler(cfg, power.NewManager(cfg, nil), nil)
}

func runToCompletion(t *testing.T, s *Scheduler, tk *Ticket) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		switch s.Advance(tk) {
		case AdvanceDone:
			return
		case AdvanceWait:
			if !s.Reacquire(tk) {
				t.Fatal("write stalled with no competitor holding tokens")
			}
		}
	}
	t.Fatal("write did not complete in 1000 phases")
}

func TestFigure5Scenario(t *testing.T) {
	// Per-write heuristic: WR-B (40 tokens) cannot start while WR-A holds
	// 50 of the 80 available. Under IPM, WR-A's RESET completion reclaims
	// 25 tokens and WR-B starts.
	a := wrA(8)
	b := manualProfile(40, []int{36, 20, 12, 6, 0}, 8)

	cfgPW := fig5Config(sim.SchemeDIMMChip)
	sPW := newSched(&cfgPW)
	tkA, ok := sPW.TryStart(a, new(Offer))
	if !ok {
		t.Fatal("per-write: WR-A not admitted")
	}
	if _, ok := sPW.TryStart(b, new(Offer)); ok {
		t.Fatal("per-write: WR-B admitted alongside WR-A (only 30 tokens free)")
	}
	runToCompletion(t, sPW, tkA)
	if _, ok := sPW.TryStart(b, new(Offer)); !ok {
		t.Fatal("per-write: WR-B not admitted after WR-A finished")
	}

	cfgIPM := fig5Config(sim.SchemeIPM)
	sIPM := newSched(&cfgIPM)
	tkA2, ok := sIPM.TryStart(a, new(Offer))
	if !ok {
		t.Fatal("IPM: WR-A not admitted")
	}
	if _, ok := sIPM.TryStart(b, new(Offer)); ok {
		t.Fatal("IPM: WR-B admitted during WR-A's RESET")
	}
	// WR-A finishes its RESET: allocation drops 50 → 25, freeing 25.
	if res := sIPM.Advance(tkA2); res != AdvanceNext {
		t.Fatalf("Advance = %v, want AdvanceNext", res)
	}
	if got := sIPM.Manager().DIMMAvailable(); got != 55 {
		t.Fatalf("APT after WR-A RESET = %g, want 55 (Fig. 5b)", got)
	}
	if _, ok := sIPM.TryStart(b, new(Offer)); !ok {
		t.Fatal("IPM: WR-B not admitted after RESET reclamation (Fig. 5b)")
	}
}

func TestFigure6MultiReset(t *testing.T) {
	// Fig. 6: APT 80, WR-A takes 50. WR-B needs 60 — blocked without MR,
	// admitted with a 2-way split (30 tokens).
	cfg := fig5Config(sim.SchemeIPMMR)
	cfg.MultiResetSplit = 3
	s := newSched(&cfg)
	a := wrA(8)
	b := manualProfile(60, []int{58, 30, 14, 6, 0}, 8)
	if _, ok := s.TryStart(a, new(Offer)); !ok {
		t.Fatal("WR-A not admitted")
	}
	tkB, ok := s.TryStart(b, new(Offer))
	if !ok {
		t.Fatal("WR-B not admitted despite Multi-RESET")
	}
	if tkB.Plan.MRSplit != 2 {
		t.Errorf("MRSplit = %d, want 2 (smallest sufficient split)", tkB.Plan.MRSplit)
	}
	_, _, mr, _, _, _ := s.Stats()
	if mr != 1 {
		t.Errorf("MR admissions = %d, want 1", mr)
	}
}

func TestMultiResetNotUsedWhenDisabled(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM) // no MR
	s := newSched(&cfg)
	if _, ok := s.TryStart(wrA(8), new(Offer)); !ok {
		t.Fatal("WR-A not admitted")
	}
	b := manualProfile(60, []int{58, 30, 14, 6, 0}, 8)
	if _, ok := s.TryStart(b, new(Offer)); ok {
		t.Fatal("WR-B admitted without MR despite 30-token APT")
	}
}

func TestTicketLifecycle(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM)
	s := newSched(&cfg)
	prof := wrA(8)
	tk, ok := s.TryStart(prof, new(Offer))
	if !ok {
		t.Fatal("not admitted")
	}
	if tk.PhaseIndex() != 0 || !tk.InReset() {
		t.Error("fresh ticket not in RESET phase")
	}
	if tk.PhaseDuration() != cfg.ResetCycles {
		t.Errorf("RESET duration = %d", tk.PhaseDuration())
	}
	if tk.Progress() != 0 {
		t.Error("fresh progress != 0")
	}
	runToCompletion(t, s, tk)
	if s.Manager().DIMMAvailable() != cfg.DIMMTokens {
		t.Errorf("tokens leaked: %g available, want %g",
			s.Manager().DIMMAvailable(), cfg.DIMMTokens)
	}
	s.Manager().CheckInvariants(true)
	started, completed, _, _, _, _ := s.Stats()
	if started != 1 || completed != 1 {
		t.Errorf("stats = %d started / %d completed", started, completed)
	}
}

func TestMultiResetDemandBumpWaits(t *testing.T) {
	// Multi-RESET is the only plan shape whose demand can *increase*
	// mid-write: sub-RESETs of 60/3 = 20 tokens, then the first SET
	// needs 60×0.5 = 30. Arrange APT so the bump cannot be granted and
	// the write must wait at the boundary.
	cfg := fig5Config(sim.SchemeIPMMR)
	s := newSched(&cfg)
	blocker, ok := s.TryStart(manualProfile(55, []int{53, 28, 12, 0}, 8), new(Offer))
	if !ok {
		t.Fatal("blocker not admitted") // holds 55, APT 25
	}
	b := manualProfile(60, []int{58, 30, 14, 6, 0}, 8)
	tkB, ok := s.TryStart(b, new(Offer)) // MR2 needs 30 > 25; MR3 groups of 20 fit
	if !ok {
		t.Fatal("WR-B not admitted with MR")
	}
	if tkB.Plan.MRSplit != 3 {
		t.Fatalf("MRSplit = %d, want 3", tkB.Plan.MRSplit)
	}
	// Sub-RESETs 2 and 3: demand stays 20 → fine.
	if res := s.Advance(tkB); res != AdvanceNext {
		t.Fatalf("sub-RESET 2 advance = %v", res)
	}
	if res := s.Advance(tkB); res != AdvanceNext {
		t.Fatalf("sub-RESET 3 advance = %v", res)
	}
	// First SET needs 30; APT = 80-55-20+20(released) = 25 < 30 → wait.
	if res := s.Advance(tkB); res != AdvanceWait {
		t.Fatalf("SET advance = %v, want AdvanceWait", res)
	}
	if tkB.Holds() {
		t.Error("stalled ticket still holds tokens")
	}
	if s.Reacquire(tkB) {
		t.Error("reacquire succeeded with no tokens freed")
	}
	// Blocker finishes its RESET: allocation 55 → 27.5, freeing 27.5;
	// APT = 52.5 ≥ 30 → WR-B resumes.
	if res := s.Advance(blocker); res != AdvanceNext {
		t.Fatal("blocker advance failed")
	}
	if !s.Reacquire(tkB) {
		t.Fatal("WR-B did not resume after tokens freed")
	}
	runToCompletion(t, s, tkB)
	runToCompletion(t, s, blocker)
	s.Manager().CheckInvariants(true)
}

func TestPauseResume(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM)
	s := newSched(&cfg)
	tk, _ := s.TryStart(wrA(8), new(Offer))
	avail := s.Manager().DIMMAvailable()
	s.Pause(tk)
	if tk.Holds() {
		t.Error("paused ticket still holds tokens")
	}
	if got := s.Manager().DIMMAvailable(); got != avail+50 {
		t.Errorf("pause freed %g tokens, want 50", got-avail)
	}
	s.Pause(tk) // idempotent
	if s.Manager().DIMMAvailable() != avail+50 {
		t.Error("second pause changed the free tokens")
	}
	if !s.Reacquire(tk) {
		t.Fatal("resume failed with free tokens")
	}
	if s.Manager().DIMMAvailable() != avail {
		t.Error("resume did not retake tokens")
	}
	if !s.Reacquire(tk) {
		t.Error("reacquire of running ticket must be true")
	}
	if s.Manager().DIMMAvailable() != avail {
		t.Error("reacquire of running ticket took tokens")
	}
	runToCompletion(t, s, tk)
}

func TestResumeFailsWhenTokensTaken(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM)
	s := newSched(&cfg)
	tk, _ := s.TryStart(wrA(8), new(Offer)) // 50 tokens
	s.Pause(tk)
	other, ok := s.TryStart(manualProfile(60, []int{30, 0}, 8), new(Offer))
	if !ok {
		t.Fatal("competitor not admitted into paused window")
	}
	if s.Reacquire(tk) {
		t.Error("resume succeeded with only 20 tokens free")
	}
	runToCompletion(t, s, other)
	if !s.Reacquire(tk) {
		t.Error("resume failed after competitor finished")
	}
	runToCompletion(t, s, tk)
	s.Manager().CheckInvariants(true)
}

func TestCancelReleasesEverything(t *testing.T) {
	cfg := fig5Config(sim.SchemeIPM)
	s := newSched(&cfg)
	tk, _ := s.TryStart(wrA(8), new(Offer))
	s.Cancel(tk)
	if s.Manager().DIMMAvailable() != cfg.DIMMTokens {
		t.Error("cancel leaked tokens")
	}
	s.Manager().CheckInvariants(true)
}

func TestGCPUsedAccumulates(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCP
	s := newSched(&cfg)
	// Saturate chip 0 with a direct write so the next one needs the GCP.
	hot := &pcm.WriteProfile{
		Changed:       60,
		TotalIters:    1,
		PerChip:       []int{60, 0, 0, 0, 0, 0, 0, 0},
		RemainTotal:   []int{60, 0},
		RemainPerChip: [][]int{{60, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}},
	}
	if _, ok := s.TryStart(hot, new(Offer)); !ok {
		t.Fatal("first hot write not admitted")
	}
	hot2 := &pcm.WriteProfile{
		Changed:       30,
		TotalIters:    1,
		PerChip:       []int{30, 0, 0, 0, 0, 0, 0, 0},
		RemainTotal:   []int{30, 0},
		RemainPerChip: [][]int{{30, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}},
	}
	tk2, ok := s.TryStart(hot2, new(Offer))
	if !ok {
		t.Fatal("second hot write not admitted despite GCP")
	}
	if tk2.GCPUsed() != 30 {
		t.Errorf("GCPUsed = %g, want 30", tk2.GCPUsed())
	}
	runToCompletion(t, s, tk2)
	if got := s.Manager().AvgGCPPerWrite(); got != 30 {
		t.Errorf("AvgGCPPerWrite = %g, want 30", got)
	}
}

func TestChipBlockingFigure3(t *testing.T) {
	// Fig. 3: WR-A changes 4 cells (1/1/2 per chip... adapted to 8 chips):
	// a chip at its budget blocks WR-B even though the DIMM has room.
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeDIMMChip
	s := newSched(&cfg)
	lcp := cfg.LCPTokens() // 66.5
	mk := func(onChip1 int) *pcm.WriteProfile {
		per := make([]int, 8)
		per[1] = onChip1
		p := &pcm.WriteProfile{
			Changed:       onChip1,
			TotalIters:    1,
			PerChip:       per,
			RemainTotal:   []int{onChip1, 0},
			RemainPerChip: [][]int{per, make([]int, 8)},
		}
		return p
	}
	a := mk(int(lcp)) // 66 cells on chip 1
	if _, ok := s.TryStart(a, new(Offer)); !ok {
		t.Fatal("WR-A not admitted")
	}
	// WR-B wants 3 more cells on chip 1: DIMM has 494 tokens free, but
	// chip 1 has only 0.5 — blocked, the exact pathology of Fig. 3.
	if _, ok := s.TryStart(mk(3), new(Offer)); ok {
		t.Fatal("WR-B admitted past chip 1's budget")
	}
	// The same WR-B under a GCP goes through.
	cfgG := cfg
	cfgG.Scheme = sim.SchemeGCP
	sG := newSched(&cfgG)
	if _, ok := sG.TryStart(a, new(Offer)); !ok {
		t.Fatal("GCP: WR-A not admitted")
	}
	if _, ok := sG.TryStart(mk(3), new(Offer)); !ok {
		t.Fatal("GCP: WR-B still blocked")
	}
}
