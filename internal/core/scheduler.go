package core

import (
	"fpb/internal/obs"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
)

// Ticket is the live state of an admitted write: which phase of its plan it
// is in and what tokens it currently holds. It lives in the write's Offer.
type Ticket struct {
	Profile *pcm.WriteProfile
	Plan    *WritePlan

	phase   int
	grant   power.Grant
	gcpUsed float64
}

// PhaseIndex reports the current phase (0-based).
func (t *Ticket) PhaseIndex() int { return t.phase }

// PhaseDuration reports how long the current phase lasts.
func (t *Ticket) PhaseDuration() sim.Cycle { return t.Plan.Phases[t.phase].Duration }

// InReset reports whether the current phase is a RESET (sub-)iteration.
func (t *Ticket) InReset() bool { return t.Plan.Phases[t.phase].Reset }

// Progress reports the fraction of phases completed, in [0, 1).
func (t *Ticket) Progress() float64 {
	return float64(t.phase) / float64(len(t.Plan.Phases))
}

// Holds reports whether the write holds its current phase's tokens. A
// write stalled at a phase boundary or paused holds none until Reacquire
// succeeds.
func (t *Ticket) Holds() bool { return t.grant.Held() }

// GCPUsed reports accumulated GCP output tokens across the write's phases.
func (t *Ticket) GCPUsed() float64 { return t.gcpUsed }

// AdvanceResult tells the controller what happened at a phase boundary.
type AdvanceResult int

const (
	// AdvanceDone: the write completed; all tokens are released.
	AdvanceDone AdvanceResult = iota
	// AdvanceNext: the next phase's tokens are held; schedule its end.
	AdvanceNext
	// AdvanceWait: the next phase's tokens are unavailable; the write
	// holds nothing and must Reacquire when tokens free up. Only
	// Multi-RESET plans can hit this (demand is otherwise non-increasing).
	AdvanceWait
)

// Scheduler admits writes and walks their plans against the power manager.
// It is the run-time half of FPB; Planner is the policy half.
type Scheduler struct {
	cfg     *sim.Config
	planner *Planner
	mgr     *power.Manager
	hub     *obs.Hub

	// Telemetry, registered in the hub's metrics registry.
	started      *obs.Counter
	completed    *obs.Counter
	mrWrites     *obs.Counter
	multiRound   *obs.Counter
	waitStalls   *obs.Counter
	admitFailure *obs.Counter
}

// NewScheduler wires a scheduler over the power manager and registers its
// metrics into hub (nil hub: detached metrics, no tracing).
func NewScheduler(cfg *sim.Config, mgr *power.Manager, hub *obs.Hub) *Scheduler {
	return &Scheduler{
		cfg:          cfg,
		planner:      NewPlanner(cfg),
		mgr:          mgr,
		hub:          hub,
		started:      hub.Counter("core.scheduler.started"),
		completed:    hub.Counter("core.scheduler.completed"),
		mrWrites:     hub.Counter("core.scheduler.multireset_splits"),
		multiRound:   hub.Counter("core.scheduler.multiround_writes"),
		waitStalls:   hub.Counter("core.scheduler.wait_stalls"),
		admitFailure: hub.Counter("core.scheduler.admit_failures"),
	}
}

// Manager exposes the underlying power manager (for telemetry readers).
func (s *Scheduler) Manager() *power.Manager { return s.mgr }

// Offer is the storage a write keeps from enqueue to completion: the plans
// TryStart built for its profile, the power-manager epoch at which they
// were last refused, and the ticket of its admission. Plans are a pure
// function of the profile and the configuration, and a refusal is a pure
// function of the plans and the pools, which only move the epoch when they
// change; so an offer refused at the current epoch is refused again, for
// the same reasons, without asking, and a cancelled write re-issues with
// the plans it was admitted with. The zero Offer is empty.
//
// Whoever rebuilds the write's profile must Reset the offer. An offer must
// outlive its ticket, and must not be Reset or passed to TryStart while
// that ticket runs: the ticket's plan lives in the offer.
type Offer struct {
	plans   [pcm.MaxMultiResetSplit + 1]WritePlan // [0]: base plan; [m]: RESET split m
	built   uint8                                 // bit m set: plans[m] is built for the current profile
	refused uint64                                // 1 + the epoch of the last refusal; 0: none
	denied  [3]uint64                             // that refusal's DIMM, chip and GCP denials
	ticket  Ticket
}

// Reset forgets the offer's plans and refusal, keeping their storage. It
// releases nothing: a running ticket's tokens go back through Cancel or
// the write's last Advance.
func (o *Offer) Reset() { o.built, o.refused = 0, 0 }

// TryStart attempts to admit the write whose profile is prof and whose
// offer is o. Per the paper, the base plan is tried first; if its first
// phase cannot be granted and Multi-RESET is enabled, progressively larger
// RESET splits (2..MultiResetSplit) are tried — the greedy "start a portion
// of the RESETs as early as possible" strategy of Section 6.2. Returns the
// offer's ticket, running the admitted plan, and true on admission, which
// forgets the offer's refusal but keeps its plans. On refusal the offer
// keeps its plans for the next attempt, and a repeat at an unchanged epoch
// counts the same denials without planning or asking the power manager.
func (s *Scheduler) TryStart(prof *pcm.WriteProfile, o *Offer) (*Ticket, bool) {
	epoch := s.mgr.Epoch()
	if o.refused == epoch+1 {
		s.mgr.Deny(o.denied[0], o.denied[1], o.denied[2])
		s.admitFailure.Inc()
		return nil, false
	}
	// RESET splits to try, in order: unsplit (0), then 2..hi. The
	// MultiResetAlways ablation splits unconditionally: hi alone.
	lo, hi := 0, 0
	if s.cfg.UsesMultiReset() && prof.Changed > 0 {
		hi = min(s.cfg.MultiResetSplit, pcm.MaxMultiResetSplit)
		if s.cfg.MultiResetAlways {
			lo = hi
		}
	}
	dimm, chip, gcp := s.mgr.Denials()
	for mr := lo; mr <= hi; mr++ {
		if mr == 1 {
			continue
		}
		plan := &o.plans[mr]
		if o.built&(1<<mr) == 0 {
			s.planner.plan(plan, prof, mr)
			o.built |= 1 << mr
		}
		if s.mgr.TryAcquire(plan.Phases[0].Demand, &o.ticket.grant) {
			o.refused = 0
			if mr > 0 {
				s.mrWrites.Inc()
			}
			s.admit(&o.ticket, prof, plan)
			return &o.ticket, true
		}
	}
	dimm2, chip2, gcp2 := s.mgr.Denials()
	o.refused = epoch + 1
	o.denied = [3]uint64{dimm2 - dimm, chip2 - chip, gcp2 - gcp}
	s.admitFailure.Inc()
	return nil, false
}

// admit starts t, whose grant holds the first phase's tokens, on plan.
func (s *Scheduler) admit(t *Ticket, prof *pcm.WriteProfile, plan *WritePlan) {
	s.started.Inc()
	if plan.Rounds > 1 {
		s.multiRound.Inc()
	}
	if s.hub.Tracing() {
		// V carries the Multi-RESET split factor (0/1: unsplit).
		s.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "core", Name: "write.admit",
			ID: -1, V: float64(plan.MRSplit)})
	}
	t.Profile, t.Plan, t.phase = prof, plan, 0
	t.gcpUsed = t.grant.GCPTokens()
}

// Advance moves the ticket past the end of its current phase: it releases
// the phase's tokens, then acquires the next phase's. On AdvanceNext the
// grant covers the new phase; on AdvanceWait the write holds no tokens and
// the controller must call Reacquire when power frees up; on AdvanceDone
// everything is released and telemetry recorded. Releasing first is safe
// for FPB-IPM because per-iteration demand never increases within a write;
// only Multi-RESET's RESET→SET transition can fail, which models the short
// boundary stall.
func (s *Scheduler) Advance(t *Ticket) AdvanceResult {
	t.phase++
	if t.phase >= len(t.Plan.Phases) {
		s.finish(t)
		return AdvanceDone
	}
	s.mgr.Release(&t.grant)
	if !s.Reacquire(t) {
		s.waitStalls.Inc()
		return AdvanceWait
	}
	return AdvanceNext
}

// Reacquire acquires the current phase's tokens for a write that holds
// none, stalled at a phase boundary or paused, and reports whether the
// write may proceed (false: it holds nothing; try again later). A write
// that holds its tokens proceeds at once.
func (s *Scheduler) Reacquire(t *Ticket) bool {
	if t.grant.Held() {
		return true
	}
	if !s.mgr.TryAcquire(t.Plan.Phases[t.phase].Demand, &t.grant) {
		return false
	}
	t.gcpUsed += t.grant.GCPTokens()
	return true
}

// Pause releases the write's tokens at an iteration boundary (write
// pausing, Qureshi et al. HPCA'10). The bank can then serve reads; the
// write continues once Reacquire succeeds.
func (s *Scheduler) Pause(t *Ticket) {
	s.mgr.Release(&t.grant)
}

// Cancel abandons the write (write cancellation): all tokens are released
// and the ticket becomes dead. The controller re-issues the write from
// scratch later.
func (s *Scheduler) Cancel(t *Ticket) {
	s.mgr.Release(&t.grant)
}

// finish completes the write.
func (s *Scheduler) finish(t *Ticket) {
	s.mgr.Release(&t.grant)
	s.mgr.RecordWriteGCPUsage(t.gcpUsed)
	s.completed.Inc()
}

// Stats reports scheduler telemetry: admitted writes, completions,
// Multi-RESET admissions, multi-round writes, and boundary stalls.
func (s *Scheduler) Stats() (started, completed, mr, multiRound, stalls, admitFail uint64) {
	return s.started.Value(), s.completed.Value(), s.mrWrites.Value(),
		s.multiRound.Value(), s.waitStalls.Value(), s.admitFailure.Value()
}
