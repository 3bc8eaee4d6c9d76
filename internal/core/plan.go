// Package core implements the paper's contribution: fine-grained write
// power budgeting (FPB) for MLC PCM. It turns a write's physical profile
// (internal/pcm) into a *power plan* — the sequence of token allocations the
// write holds over its lifetime — under any of the evaluated schemes:
//
//   - Ideal: no power restriction.
//   - Per-write budgeting (Hay et al., MICRO'11): one allocation sized for
//     the RESET demand, held for the whole write (DIMM-only and DIMM+chip).
//   - FPB-IPM: per-iteration allocations that track the step-down power
//     demand of the program-and-verify sequence, reclaiming tokens after
//     the RESET and after every SET iteration (Section 3).
//   - Multi-RESET: splitting the power-hungry RESET iteration into m
//     sub-RESETs to lower the peak demand (Section 3.2).
//   - FPB-GCP: chip-level shortfalls covered by the global charge pump
//     (Section 4) — realized in internal/power and engaged through the
//     per-chip demands this package emits.
//
// It also implements the paper's multi-round write fallback (Section 3.2's
// comparison): a write whose demand exceeds what the budgets can ever
// supply is executed as R sequential rounds over disjoint cell subsets.
package core

import (
	"fmt"
	"slices"

	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
)

// Phase is one contiguous stretch of a write during which its token
// allocation is constant.
type Phase struct {
	Duration sim.Cycle
	Demand   power.Demand
	// Reset marks RESET (sub-)iterations; used by write-pausing, which
	// may only pause between iterations, and by telemetry.
	Reset bool
}

// WritePlan is the full power/timing schedule for one line write.
type WritePlan struct {
	Phases []Phase
	// MRSplit is the Multi-RESET split factor used (0 or 1 when the
	// RESET was not split).
	MRSplit int
	// Rounds > 1 marks a multi-round write: the phase list already
	// contains every round, over cell subsets scaled by 1/Rounds.
	Rounds int

	// demand backs the phases' per-chip demands, one cfg.Chips-long
	// sub-slice each. It is sized before the first phase is appended, so
	// appending never moves the vectors earlier phases point into.
	demand []float64
}

// TotalDuration sums the phase durations.
func (p *WritePlan) TotalDuration() sim.Cycle {
	var d sim.Cycle
	for _, ph := range p.Phases {
		d += ph.Duration
	}
	return d
}

// PeakDIMMDemand returns the largest per-phase DIMM demand; the admission
// test of the per-write heuristic and the Multi-RESET trigger compare this
// against available tokens.
func (p *WritePlan) PeakDIMMDemand() float64 {
	peak := 0.0
	for _, ph := range p.Phases {
		if ph.Demand.DIMM > peak {
			peak = ph.Demand.DIMM
		}
	}
	return peak
}

// Planner builds WritePlans for a fixed configuration.
//
// The caller owns each plan: planning overwrites the plan it is given and
// reuses its slices, so re-planning a kept plan is allocation-free once
// they have grown. A Planner must not be shared across goroutines.
type Planner struct {
	cfg    *sim.Config
	counts []int // scratch for the Multi-RESET sub-iteration branch
}

// NewPlanner returns a planner for the configuration.
func NewPlanner(cfg *sim.Config) *Planner {
	return &Planner{cfg: cfg}
}

// resizeInts returns s resized to n elements, zeroed, reusing its backing
// array when capacity allows.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// chipDemand fills the plan's next per-chip vector with
// counts×factor×scale, or returns nil when chip budgets are not enforced.
func (pl *Planner) chipDemand(plan *WritePlan, counts []int, factor, scale float64) []float64 {
	if !pl.cfg.EnforcesChipBudget() || counts == nil {
		return nil
	}
	n := len(plan.demand)
	plan.demand = plan.demand[:n+pl.cfg.Chips]
	per := plan.demand[n:len(plan.demand):len(plan.demand)]
	for c, k := range counts {
		per[c] = float64(k) * factor * scale
	}
	return per
}

// Plan overwrites p with the write plan for the profile under the
// configured scheme, without Multi-RESET (callers apply MR separately when
// the base plan cannot be admitted), and returns p. Multi-round scaling is
// applied automatically when the demand exceeds budget capacities.
func (pl *Planner) Plan(p *WritePlan, prof *pcm.WriteProfile) *WritePlan {
	return pl.plan(p, prof, 0)
}

// PlanMR overwrites p with the plan whose RESET is split into m
// sub-iterations, and returns p. It panics if m is out of the precomputed
// range.
func (pl *Planner) PlanMR(p *WritePlan, prof *pcm.WriteProfile, m int) *WritePlan {
	if m < 2 || m > pcm.MaxMultiResetSplit {
		panic(fmt.Sprintf("core: Multi-RESET split %d out of range [2,%d]", m, pcm.MaxMultiResetSplit))
	}
	return pl.plan(p, prof, m)
}

func (pl *Planner) plan(plan *WritePlan, prof *pcm.WriteProfile, mr int) *WritePlan {
	plan.MRSplit = mr
	rounds := pl.requiredRounds(prof, mr)
	plan.Rounds = rounds
	plan.Phases = plan.Phases[:0]
	plan.demand = plan.demand[:0]
	if pl.cfg.EnforcesChipBudget() {
		// One per-chip vector per phase: a round is one phase, or, under
		// IPM, its (sub-)RESETs and its TotalIters-1 SETs.
		vecs := rounds
		if pl.cfg.UsesIPM() {
			vecs *= max(mr, 1) + max(prof.TotalIters-1, 0)
		}
		plan.demand = slices.Grow(plan.demand, vecs*pl.cfg.Chips)
	}
	scale := 1.0 / float64(rounds)
	for r := 0; r < rounds; r++ {
		pl.roundPhases(plan, prof, mr, scale)
	}
	return plan
}

// roundPhases appends the phases of one write round to the plan, with all
// demands scaled by scale (1/Rounds).
func (pl *Planner) roundPhases(plan *WritePlan, prof *pcm.WriteProfile, mr int, scale float64) {
	cfg := pl.cfg

	switch {
	case cfg.Scheme == sim.SchemeIdeal:
		// No budgeting: a single zero-demand phase spanning the write.
		plan.Phases = append(plan.Phases, Phase{
			Duration: prof.Duration(cfg, mr),
			Reset:    true,
		})

	case !cfg.UsesIPM():
		// Per-write heuristic: the full RESET-sized demand is held for
		// the entire duration of the longest cell write — exactly the
		// pessimism Figure 5(a) illustrates.
		plan.Phases = append(plan.Phases, Phase{
			Duration: prof.Duration(cfg, mr),
			Demand: power.Demand{
				DIMM:    float64(prof.Changed) * scale,
				PerChip: pl.chipDemand(plan, prof.PerChip, 1, scale),
			},
			Reset: true,
		})

	default:
		// FPB-IPM: one phase per iteration with step-down demand.
		ratio := cfg.SetPowerRatio
		if mr > 1 {
			// Multi-RESET: m sub-RESETs over static cell groups.
			pl.counts = resizeInts(pl.counts, len(prof.PerChip))
			for g := 0; g < mr; g++ {
				total := 0
				for c := range prof.PerChip {
					n := prof.MRGroups[mr][c][g]
					pl.counts[c] = n
					total += n
				}
				plan.Phases = append(plan.Phases, Phase{
					Duration: cfg.ResetCycles,
					Demand: power.Demand{
						DIMM:    float64(total) * scale,
						PerChip: pl.chipDemand(plan, pl.counts, 1, scale),
					},
					Reset: true,
				})
			}
		} else {
			plan.Phases = append(plan.Phases, Phase{
				Duration: cfg.ResetCycles,
				Demand: power.Demand{
					DIMM:    float64(prof.Changed) * scale,
					PerChip: pl.chipDemand(plan, prof.PerChip, 1, scale),
				},
				Reset: true,
			})
		}
		// SET iterations 2..TotalIters. The allocation for iteration j
		// is computed from information available at its start: iteration
		// 2 reclaims (C-1)/C of the RESET allocation (demand = Changed ×
		// SetPowerRatio); iteration j >= 3 is sized by the cells still
		// unfinished after iteration j-2, reported by the chips at the
		// end of that iteration (Section 3.1).
		for j := 2; j <= prof.TotalIters; j++ {
			basis := prof.Changed
			basisPer := prof.PerChip
			if j >= 3 {
				basis = prof.RemainTotal[j-2]
				basisPer = prof.RemainPerChip[j-2]
			}
			plan.Phases = append(plan.Phases, Phase{
				Duration: cfg.SetCycles,
				Demand: power.Demand{
					DIMM:    float64(basis) * ratio * scale,
					PerChip: pl.chipDemand(plan, basisPer, ratio, scale),
				},
			})
		}
	}
}

// maxFeasibilityRounds bounds the multi-round search; no realistic
// configuration needs more (a 1024-cell line against a 66-token chip budget
// needs 2 rounds under the worst mapping).
const maxFeasibilityRounds = 64

// requiredRounds returns the smallest R such that every phase demand of the
// write, scaled by 1/R, fits within the *capacities* of the budgets (not
// current availability) — i.e. the write can eventually issue when alone in
// the system. This is the paper's multi-round write.
func (pl *Planner) requiredRounds(prof *pcm.WriteProfile, mr int) int {
	cfg := pl.cfg
	// The half-stripe layout physically accesses every line in two
	// rounds regardless of power budgets (Section 2.1).
	minRounds := 1
	if cfg.HalfStripe {
		minRounds = 2
	}
	if cfg.Scheme == sim.SchemeIdeal {
		return minRounds
	}
	for r := minRounds; r <= maxFeasibilityRounds; r++ {
		if pl.feasibleAtScale(prof, mr, 1.0/float64(r)) {
			return r
		}
	}
	return maxFeasibilityRounds
}

// feasibleAtScale checks whether the write's peak phase demands, scaled,
// fit the static budget capacities.
func (pl *Planner) feasibleAtScale(prof *pcm.WriteProfile, mr int, scale float64) bool {
	cfg := pl.cfg
	const eps = 1e-9
	// DIMM level: the peak demand is the (possibly split) RESET.
	peakDIMM := float64(prof.Changed) * scale
	if cfg.UsesIPM() && mr > 1 {
		peakDIMM = 0
		for g := 0; g < mr; g++ {
			total := 0
			for c := range prof.PerChip {
				total += prof.MRGroups[mr][c][g]
			}
			if d := float64(total) * scale; d > peakDIMM {
				peakDIMM = d
			}
		}
		// SET iterations may exceed a sub-RESET's demand.
		if d := float64(prof.Changed) * cfg.SetPowerRatio * scale; d > peakDIMM {
			peakDIMM = d
		}
	}
	if cfg.EnforcesDIMMBudget() && peakDIMM > cfg.DIMMTokens+eps {
		return false
	}
	if !cfg.EnforcesChipBudget() {
		return true
	}
	// Chip level: each segment must fit its LCP, or be coverable by the
	// GCP; GCP-covered segments must jointly fit the GCP output and the
	// borrow must be fundable from the remaining headroom.
	lcpCap := cfg.LCPTokens()
	gcpCap := 0.0
	if cfg.UsesGCP() {
		gcpCap = cfg.GCPTokens()
	}
	peakChip := func(c int) float64 {
		d := float64(prof.PerChip[c]) * scale
		if cfg.UsesIPM() && mr > 1 {
			d = 0
			for g := 0; g < mr; g++ {
				if v := float64(prof.MRGroups[mr][c][g]) * scale; v > d {
					d = v
				}
			}
			if v := float64(prof.PerChip[c]) * cfg.SetPowerRatio * scale; v > d {
				d = v
			}
		}
		return d
	}
	gcpNeed, direct := 0.0, 0.0
	for c := range prof.PerChip {
		d := peakChip(c)
		switch {
		case d <= lcpCap+eps:
			direct += d
		case d <= gcpCap+eps:
			gcpNeed += d
		default:
			return false
		}
	}
	if gcpNeed == 0 {
		return true
	}
	if gcpNeed > gcpCap+eps {
		return false
	}
	borrow := gcpNeed * cfg.LCPEff / cfg.GCPEff
	headroom := float64(cfg.Chips)*lcpCap - direct
	return borrow <= headroom+eps
}
