package power

import (
	"cmp"
	"fmt"
	"slices"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/stats"
)

// Demand is the power a write phase needs, in RESET-equivalent tokens.
type Demand struct {
	// DIMM is the total token demand charged against the DIMM budget.
	DIMM float64
	// PerChip is the per-chip token demand; nil when chip budgets are not
	// enforced (Ideal and DIMM-only schemes).
	PerChip []float64
}

// Total sums the per-chip demand.
func (d *Demand) Total() float64 {
	t := 0.0
	for _, c := range d.PerChip {
		t += c
	}
	return t
}

// Grant records a satisfied Demand so it can be released later. The caller
// owns it: TryAcquire fills an empty grant and Release empties it, and its
// per-chip vectors stay with it for the next acquisition. The zero Grant is
// empty.
type Grant struct {
	dimm       float64
	lcp        []float64 // tokens taken from each chip's LCP
	gcpOut     float64   // GCP output tokens supplied
	borrowed   []float64 // LCP tokens borrowed per chip to fund the GCP
	maxSegment float64   // largest single GCP-powered chip segment
	held       bool      // committed: its tokens are out of the pools
}

// GCPTokens reports the GCP output tokens this grant is consuming.
func (g *Grant) GCPTokens() float64 { return g.gcpOut }

// Held reports whether the grant holds tokens: it was filled by TryAcquire
// and not released since.
func (g *Grant) Held() bool { return g.held }

// empty zeroes the grant, keeping its per-chip vectors.
func (g *Grant) empty() {
	clear(g.lcp)
	clear(g.borrowed)
	g.dimm, g.gcpOut, g.maxSegment, g.held = 0, 0, 0, false
}

// Manager owns every pool and implements the acquisition policy, including
// the GCP segment rule of the paper: a chip segment is powered entirely by
// its LCP or entirely by the GCP, never both.
type Manager struct {
	cfg *sim.Config
	hub *obs.Hub

	dimm  *Pool
	chips []*Pool
	gcp   *Pool // capacity = max GCP output tokens

	// epoch moves on every commit and Release, the only changes to the
	// pools, so a demand refused at one epoch is refused again, for the
	// same reason, until it moves.
	epoch uint64

	// Telemetry for Figures 13/14 and the energy-waste analysis. The
	// counters live in the hub's metrics registry (registered by
	// NewManager); the float extrema/summaries stay local and are
	// exported as gauges.
	gcpMaxOut     float64
	gcpMaxGrant   float64       // largest single-grant GCP output
	gcpMaxSegment float64       // largest single chip segment the GCP powered
	gcpPerWrite   stats.Summary // GCP output tokens requested per line write
	gcpWasteIn    float64       // input power burned by GCP inefficiency (token·phases)
	deniedDIMM    *obs.Counter
	deniedChip    *obs.Counter
	deniedGCP     *obs.Counter
	grantsIssued  *obs.Counter
	scratchOrder  []int
	scratchShort  []int
	scratchNeeded []float64
}

// NewManager builds pools from the configuration and registers the
// manager's metrics into hub (nil hub: metrics stay detached, no tracing).
func NewManager(cfg *sim.Config, hub *obs.Hub) *Manager {
	m := &Manager{cfg: cfg, hub: hub}
	m.dimm = NewPool(cfg.DIMMTokens)
	m.chips = make([]*Pool, cfg.Chips)
	for i := range m.chips {
		m.chips[i] = NewPool(cfg.LCPTokens())
	}
	gcpCap := 0.0
	if cfg.UsesGCP() {
		gcpCap = cfg.GCPTokens()
	}
	m.gcp = NewPool(gcpCap)

	m.deniedDIMM = hub.Counter("power.denied.dimm")
	m.deniedChip = hub.Counter("power.denied.chip")
	m.deniedGCP = hub.Counter("power.denied.gcp")
	m.grantsIssued = hub.Counter("power.grants")
	hub.Gauge("power.dimm.tokens_in_use", m.dimm.InUse)
	hub.Gauge("power.dimm.tokens_free", m.dimm.Available)
	hub.Gauge("power.gcp.tokens_in_use", m.gcp.InUse)
	hub.Gauge("power.gcp.tokens_free", m.gcp.Available)
	hub.Gauge("power.gcp.max_out", func() float64 { return m.gcpMaxOut })
	hub.Gauge("power.gcp.waste_in", func() float64 { return m.gcpWasteIn })
	hub.Gauge("power.gcp.avg_per_write", m.gcpPerWrite.Mean)
	for i := range m.chips {
		p := m.chips[i]
		hub.Gauge(fmt.Sprintf("power.chip.%d.tokens_in_use", i), p.InUse)
	}
	return m
}

// Epoch reports the pool-state epoch. It moves whenever a grant commits or
// is released; while it stands still, TryAcquire answers every demand as it
// did before.
func (m *Manager) Epoch() uint64 { return m.epoch }

// Deny counts refusals the caller answered without asking, because it was
// refused the same demands at the current epoch: it adds dimm, chip and gcp
// to the denial counters as repeating those attempts would.
func (m *Manager) Deny(dimm, chip, gcp uint64) {
	m.deniedDIMM.Add(dimm)
	m.deniedChip.Add(chip)
	m.deniedGCP.Add(gcp)
}

// DIMMAvailable returns the free DIMM-level tokens.
func (m *Manager) DIMMAvailable() float64 { return m.dimm.Available() }

// ChipAvailable returns the free tokens of chip c's LCP.
func (m *Manager) ChipAvailable(c int) float64 { return m.chips[c].Available() }

// GCPInUse returns the GCP output tokens currently supplying segments.
func (m *Manager) GCPInUse() float64 { return m.gcp.InUse() }

// TryAcquire attempts to grant the demand into g, which must be empty. It
// reports whether every budget had room; on refusal g stays empty.
func (m *Manager) TryAcquire(d Demand, g *Grant) bool {
	if g.held {
		panic("power: TryAcquire into a held grant")
	}
	if !m.plan(d, g) {
		return false
	}
	m.commit(g)
	return true
}

// plan computes into the empty grant g how the demand would be satisfied,
// allocating g's per-chip vectors the first time it plans for chip budgets.
// It touches no pool; commit applies the plan. On refusal g is left empty.
func (m *Manager) plan(d Demand, g *Grant) bool {
	if m.cfg.EnforcesDIMMBudget() && !m.dimm.CanAcquire(d.DIMM) {
		m.deniedDIMM.Inc()
		return false
	}
	g.dimm = d.DIMM
	if !m.cfg.EnforcesChipBudget() || d.PerChip == nil {
		return true
	}
	n := len(m.chips)
	if len(d.PerChip) != n {
		panic(fmt.Sprintf("power: demand for %d chips, manager has %d", len(d.PerChip), n))
	}
	if g.lcp == nil {
		v := make([]float64, 2*n)
		g.lcp, g.borrowed = v[:n:n], v[n:]
	}
	// Pass 1: segments the LCPs can power directly.
	m.scratchShort = m.scratchShort[:0]
	gcpOutNeeded := 0.0
	maxSegment := 0.0
	for c, need := range d.PerChip {
		if need <= 0 {
			continue
		}
		if m.chips[c].CanAcquire(need) {
			g.lcp[c] = need
		} else {
			m.scratchShort = append(m.scratchShort, c)
			gcpOutNeeded += need
			if need > maxSegment {
				maxSegment = need
			}
		}
	}
	g.maxSegment = maxSegment
	if len(m.scratchShort) == 0 {
		return true
	}
	// Pass 2: the GCP powers every short segment in full (segment rule).
	if !m.cfg.UsesGCP() || !m.gcp.CanAcquire(gcpOutNeeded) {
		if m.cfg.UsesGCP() && m.gcp.CanAcquire(0) {
			m.deniedGCP.Inc()
		} else {
			m.deniedChip.Inc()
		}
		g.empty()
		return false
	}
	// Fund the GCP: borrow gcpOutNeeded * E_LCP / E_GCP raw LCP tokens
	// from chips with spare capacity (Eq. 5), greedily from the chips
	// with the most headroom after their own LCP allocations.
	borrowNeed := gcpOutNeeded * m.cfg.LCPEff / m.cfg.GCPEff
	if cap(m.scratchOrder) < n {
		m.scratchOrder = make([]int, n)
		m.scratchNeeded = make([]float64, n)
	}
	order := m.scratchOrder[:n]
	headroom := m.scratchNeeded[:n]
	for c := range order {
		order[c] = c
		headroom[c] = m.chips[c].Available() - g.lcp[c]
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(headroom[b], headroom[a]) })
	remaining := borrowNeed
	for _, c := range order {
		if remaining <= epsilon {
			break
		}
		take := headroom[c]
		if take <= 0 {
			continue
		}
		if take > remaining {
			take = remaining
		}
		g.borrowed[c] = take
		remaining -= take
	}
	if remaining > epsilon {
		m.deniedGCP.Inc()
		g.empty()
		return false
	}
	g.gcpOut = gcpOutNeeded
	return true
}

// commit applies a planned grant to the pools and records telemetry.
func (m *Manager) commit(g *Grant) {
	m.epoch++
	g.held = true
	if m.cfg.EnforcesDIMMBudget() {
		m.dimm.Acquire(g.dimm)
	} else {
		g.dimm = 0
	}
	for c, n := range g.lcp {
		if n > 0 {
			m.chips[c].Acquire(n)
		}
	}
	for c, n := range g.borrowed {
		if n > 0 {
			m.chips[c].Acquire(n)
		}
	}
	if g.gcpOut > 0 {
		m.gcp.Acquire(g.gcpOut)
		if used := m.gcp.InUse(); used > m.gcpMaxOut {
			m.gcpMaxOut = used
		}
		if g.gcpOut > m.gcpMaxGrant {
			m.gcpMaxGrant = g.gcpOut
		}
		if g.maxSegment > m.gcpMaxSegment {
			m.gcpMaxSegment = g.maxSegment
		}
		// Input power funneled through the GCP that does not reach
		// cells: borrowed/E_LCP raw input vs gcpOut useful output.
		m.gcpWasteIn += g.gcpOut*m.cfg.LCPEff/m.cfg.GCPEff - g.gcpOut
		if m.hub.Tracing() {
			m.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "power", Name: "gcp.borrow", ID: -1, V: g.gcpOut})
			m.hub.Emit(obs.Event{Kind: obs.Meter, Cat: "power", Name: "gcp.tokens_in_use", ID: -1, V: m.gcp.InUse()})
		}
	}
	m.grantsIssued.Inc()
}

// Release returns every token the grant holds and empties it for the next
// TryAcquire. Releasing an empty grant is a no-op.
func (m *Manager) Release(g *Grant) {
	if !g.held {
		return
	}
	m.epoch++
	if g.dimm > 0 {
		m.dimm.Release(g.dimm)
	}
	for c, n := range g.lcp {
		if n > 0 {
			m.chips[c].Release(n)
		}
	}
	for c, n := range g.borrowed {
		if n > 0 {
			m.chips[c].Release(n)
		}
	}
	if g.gcpOut > 0 {
		m.gcp.Release(g.gcpOut)
		if m.hub.Tracing() {
			m.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "power", Name: "gcp.return", ID: -1, V: g.gcpOut})
			m.hub.Emit(obs.Event{Kind: obs.Meter, Cat: "power", Name: "gcp.tokens_in_use", ID: -1, V: m.gcp.InUse()})
		}
	}
	g.empty()
}

// RecordWriteGCPUsage notes the total GCP output tokens a completed line
// write requested across its phases (Figure 14 telemetry). Writes that
// never touched the GCP record zero.
func (m *Manager) RecordWriteGCPUsage(tokens float64) {
	m.gcpPerWrite.Add(tokens)
}

// MaxGCPOut reports the maximum concurrent GCP output observed (Figure 13).
func (m *Manager) MaxGCPOut() float64 { return m.gcpMaxOut }

// MaxGCPGrant reports the largest GCP output supplied to a single write
// phase.
func (m *Manager) MaxGCPGrant() float64 { return m.gcpMaxGrant }

// MaxGCPSegment reports the largest single chip segment the GCP ever
// powered — the pump-sizing criterion of Figure 13/Table 3: the hot-chip
// shortfall the mapping leaves behind, which a smaller pump could not have
// covered.
func (m *Manager) MaxGCPSegment() float64 { return m.gcpMaxSegment }

// AvgGCPPerWrite reports the mean GCP output tokens requested per line
// write (Figure 14).
func (m *Manager) AvgGCPPerWrite() float64 { return m.gcpPerWrite.Mean() }

// WastedInputPower reports accumulated GCP conversion losses, in
// token-phases (proportional to wasted energy).
func (m *Manager) WastedInputPower() float64 { return m.gcpWasteIn }

// Denials reports how many acquisition attempts failed at the DIMM, chip,
// and GCP levels respectively.
func (m *Manager) Denials() (dimm, chip, gcp uint64) {
	return m.deniedDIMM.Value(), m.deniedChip.Value(), m.deniedGCP.Value()
}

// Grants reports how many acquisitions succeeded.
func (m *Manager) Grants() uint64 { return m.grantsIssued.Value() }

// CheckInvariants panics if pool accounting has drifted; tests call this
// after workloads complete, when all tokens must be free.
func (m *Manager) CheckInvariants(allFree bool) {
	if !allFree {
		return
	}
	if m.dimm.InUse() > epsilon {
		panic(fmt.Sprintf("power: %.6f DIMM tokens leaked", m.dimm.InUse()))
	}
	for c, p := range m.chips {
		if p.InUse() > epsilon {
			panic(fmt.Sprintf("power: %.6f tokens leaked on chip %d", p.InUse(), c))
		}
	}
	if m.gcp.InUse() > epsilon {
		panic(fmt.Sprintf("power: %.6f GCP tokens leaked", m.gcp.InUse()))
	}
}
