package mem

import (
	"fpb/internal/core"
	"fpb/internal/mapping"
	"fpb/internal/obs"
	"fpb/internal/pcm"
	"fpb/internal/power"
	"fpb/internal/sim"
	"fpb/internal/stats"
)

// wcProgressThreshold: write cancellation aborts an in-flight write for a
// pending read only when the write has completed less than this fraction of
// its iterations (Qureshi et al. HPCA'10 — cancelling nearly-finished
// writes wastes more than it saves).
const wcProgressThreshold = 0.75

// wcMaxCancels bounds how many times one write may be cancelled; past it
// the write runs to completion (or pauses, if WP is on). Without this bound
// a read-heavy stream can starve writes indefinitely.
const wcMaxCancels = 4

// wcQueueWatermark disables cancellation once the write queue is this full,
// as Qureshi et al. do — cancelling while writes back up only hastens a
// blocking write burst.
const wcQueueWatermark = 0.8

// maxFillQueue bounds the background fill-read queue; under saturation the
// oldest fills are dropped (they model bandwidth, not data).
const maxFillQueue = 64

// latBucketCycles is the write-latency histogram resolution: latencies are
// recorded in 64-cycle buckets, so percentile reports are exact to 16 ns at
// the default 4 GHz clock.
const latBucketCycles = 64

// latMaxBuckets caps the histogram range (64 * 16384 ≈ 1M cycles); longer
// latencies land in the overflow bucket and report as the range maximum.
const latMaxBuckets = 16384

// latBounds are the write-latency histogram's unit-width bucket bounds
// 0 … latMaxBuckets+1, in latBucketCycles units. Bucket v counts latencies
// that quantize to v; the last finite bound collects the first overflow
// value and is also what Quantile reports for the +Inf tail, so every
// overflow reports as latMaxBuckets+1.
var latBounds = func() []float64 {
	b := make([]float64, latMaxBuckets+2)
	for i := range b {
		b[i] = float64(i)
	}
	return b
}()

// BaselineFunc synthesizes the pre-existing content of a never-written
// line (memory has history before the measurement window; see DESIGN.md).
type BaselineFunc func(lineAddr uint64, lineBytes int) []byte

// bankState tracks what one PCM bank is doing.
type bankState struct {
	busy     bool     // array occupied (read, or write programming)
	wr       *writeOp // non-nil while a write owns the bank
	readBusy bool     // a read is using the array during a write pause
}

// writeOp is an in-flight line write at the bridge.
type writeOp struct {
	req      *WriteRequest
	ticket   *core.Ticket
	bank     int
	phaseEv  *sim.Event
	pauseReq bool
	paused   bool
	resuming bool // already queued on resumeOps
	started  sim.Cycle
}

// Controller is the memory controller plus DIMM bridge of Figure 1.
type Controller struct {
	eng      *sim.Engine
	cfg      *sim.Config
	sched    *core.Scheduler
	store    *pcm.Store
	builder  *pcm.Builder
	amap     *pcm.AddressMap
	mapFn    mapping.Func
	mapTab   *mapping.Table
	rot      *mapping.Rotator
	baseline BaselineFunc

	rdq      []*ReadRequest // demand reads, capacity-limited
	fillq    []*ReadRequest // background fills, best-effort
	wrq      []*WriteRequest
	freeReqs []*WriteRequest // completed write requests, for reuse
	banks    []bankState

	waitingOps []*writeOp // stalled at a phase boundary for tokens
	resumeOps  []*writeOp // paused, read done, waiting for tokens

	burst       bool
	burstStart  sim.Cycle
	burstCycles sim.Cycle

	chanBus Bus // MC <-> DIMM data channel
	dimmBus Bus // DIMM-internal bus (read-before-write traffic)

	readSpaceWaiters  []func()
	writeSpaceWaiters []func()

	scheduling bool
	rerun      bool

	// Telemetry. Counters live in the hub's metrics registry; the
	// summaries/histogram stay local and are exported as gauges.
	hub          *obs.Hub
	demandReads  *obs.Counter
	fillsIssued  *obs.Counter
	fillsDropped *obs.Counter
	writesDone   *obs.Counter
	wcCancels    *obs.Counter
	wpPauses     *obs.Counter
	readLatency  stats.Summary
	writeLatency stats.Summary
	writeLatHist *obs.Histogram // bucketed by latBucketCycles for percentiles
	cellChanges  stats.Summary
	writeEnergy  stats.Summary // pJ per line write
	maxLineWr    uint64        // write count of the most-written line
}

// NewController wires the full memory subsystem for the configuration,
// including the observability hub every component registers its metrics
// into (tracing stays off until a tracer is attached via Hub().SetTracer).
func NewController(eng *sim.Engine, cfg *sim.Config, baseline BaselineFunc) *Controller {
	rng := sim.NewRNG(cfg.Seed).Derive(0xB71D6E)
	hub := obs.NewHub()
	hub.SetClock(func() uint64 { return uint64(eng.Now()) })
	c := &Controller{
		eng:          eng,
		cfg:          cfg,
		hub:          hub,
		sched:        core.NewScheduler(cfg, power.NewManager(cfg, hub), hub),
		store:        pcm.NewStore(cfg.L3LineB),
		builder:      pcm.NewBuilder(cfg, rng.Derive(1)),
		amap:         pcm.NewAddressMap(cfg.L3LineB, cfg.Banks),
		mapFn:        mapping.New(cfg.CellMapping, cfg.CellsPerLine(), cfg.Chips),
		baseline:     baseline,
		banks:        make([]bankState, cfg.Banks),
		writeLatHist: obs.NewHistogramBuckets(latBounds),
	}
	c.mapTab = mapping.NewTable(c.mapFn, cfg.CellsPerLine(), cfg.Chips)
	// The rotator — and its Derive(2) stream — is created under every
	// config, PWL on or off, so the controller derives its streams in one
	// fixed order: the order the golden result pins were recorded with.
	// PWL gates the rotator's effect through ShiftEvery (0 disables
	// rotation).
	shiftEvery := 0
	if cfg.PWL {
		shiftEvery = cfg.PWLShiftWrites
	}
	c.rot = mapping.NewRotator(cfg.CellsPerLine(), shiftEvery, rng.Derive(2))
	if baseline == nil {
		c.baseline = func(uint64, int) []byte { return nil } // all zeros
	}
	c.demandReads = hub.Counter("mem.reads.demand")
	c.fillsIssued = hub.Counter("mem.reads.fill")
	c.fillsDropped = hub.Counter("mem.reads.fill_dropped")
	c.writesDone = hub.Counter("mem.writes.done")
	c.wcCancels = hub.Counter("mem.wc.cancels")
	c.wpPauses = hub.Counter("mem.wp.pauses")
	hub.Gauge("mem.rdq.depth", func() float64 { return float64(len(c.rdq)) })
	hub.Gauge("mem.fillq.depth", func() float64 { return float64(len(c.fillq)) })
	hub.Gauge("mem.wrq.depth", func() float64 { return float64(len(c.wrq)) })
	hub.Gauge("mem.banks.busy", func() float64 {
		n := 0
		for i := range c.banks {
			if c.banks[i].busy || c.banks[i].readBusy {
				n++
			}
		}
		return float64(n)
	})
	hub.Gauge("mem.burst.active", func() float64 {
		if c.burst {
			return 1
		}
		return 0
	})
	hub.Gauge("mem.read.latency_mean", c.readLatency.Mean)
	hub.Gauge("mem.write.latency_mean", c.writeLatency.Mean)
	hub.Gauge("mem.write.latency_p50", func() float64 { p, _, _ := c.WriteLatencyPercentiles(); return p })
	hub.Gauge("mem.write.latency_p95", func() float64 { _, p, _ := c.WriteLatencyPercentiles(); return p })
	hub.Gauge("mem.write.latency_p99", func() float64 { _, _, p := c.WriteLatencyPercentiles(); return p })
	return c
}

// Store exposes the PCM content store.
func (c *Controller) Store() *pcm.Store { return c.store }

// Scheduler exposes the FPB scheduler (telemetry).
func (c *Controller) Scheduler() *core.Scheduler { return c.sched }

// Hub exposes the observability hub shared by the whole memory subsystem
// (controller, scheduler, power manager). Attach a tracer or read the
// metrics registry through it.
func (c *Controller) Hub() *obs.Hub { return c.hub }

// --- Enqueue API (called by cores) ---

// TryEnqueueRead submits a demand read; done runs when data returns. A
// false return means the read queue is full: register with WaitReadSpace.
func (c *Controller) TryEnqueueRead(addr uint64, done func()) bool {
	if len(c.rdq) >= c.cfg.ReadQueueEntries {
		return false
	}
	c.rdq = append(c.rdq, &ReadRequest{
		Addr: c.amap.LineAddr(addr), Demand: true, Done: done, enqueued: c.eng.Now(),
	})
	c.schedule()
	return true
}

// EnqueueFillRead submits a background fill read (never blocks; may drop
// under saturation).
func (c *Controller) EnqueueFillRead(addr uint64) {
	if len(c.fillq) >= maxFillQueue {
		c.fillsDropped.Inc()
		return
	}
	c.fillq = append(c.fillq, &ReadRequest{
		Addr: c.amap.LineAddr(addr), enqueued: c.eng.Now(),
	})
	c.schedule()
}

// TryEnqueueWrite submits a dirty-line writeback with its new content. A
// false return means the write queue is full (this is also the write-burst
// trigger): register with WaitWriteSpace.
func (c *Controller) TryEnqueueWrite(addr uint64, data []byte) bool {
	if len(c.wrq) >= c.cfg.WriteQueueEntries {
		c.enterBurst()
		c.schedule()
		return false
	}
	var req *WriteRequest
	if n := len(c.freeReqs); n > 0 {
		req = c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
		// The profile, plans and ticket keep their storage for this
		// write; profileFor rebuilds the profile and resets the offer.
		req.profValid = false
	} else {
		req = new(WriteRequest)
	}
	req.Addr, req.Data, req.enqueued, req.cancelled = c.amap.LineAddr(addr), data, c.eng.Now(), 0
	c.wrq = append(c.wrq, req)
	if len(c.wrq) >= c.cfg.WriteQueueEntries {
		c.enterBurst()
	}
	c.schedule()
	return true
}

// WaitReadSpace registers fn to run once when read-queue space frees.
func (c *Controller) WaitReadSpace(fn func()) {
	c.readSpaceWaiters = append(c.readSpaceWaiters, fn)
}

// WaitWriteSpace registers fn to run once when write-queue space frees.
func (c *Controller) WaitWriteSpace(fn func()) {
	c.writeSpaceWaiters = append(c.writeSpaceWaiters, fn)
}

// --- Burst mode ---

func (c *Controller) enterBurst() {
	if !c.burst {
		c.burst = true
		c.burstStart = c.eng.Now()
		if c.hub.Tracing() {
			c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "burst.enter",
				ID: -1, V: float64(len(c.wrq))})
		}
	}
}

func (c *Controller) maybeExitBurst() {
	if c.burst && len(c.wrq) == 0 {
		c.burst = false
		c.burstCycles += c.eng.Now() - c.burstStart
		if c.hub.Tracing() {
			c.hub.Emit(obs.Event{Kind: obs.Span, Cat: "mem", Name: "burst",
				ID: -1, Dur: uint64(c.eng.Now() - c.burstStart)})
		}
	}
}

// InBurst reports whether a write burst is draining.
func (c *Controller) InBurst() bool { return c.burst }

// BurstCycles reports accumulated write-burst time (Figure 10). If a burst
// is in progress it is counted up to now.
func (c *Controller) BurstCycles() sim.Cycle {
	total := c.burstCycles
	if c.burst {
		total += c.eng.Now() - c.burstStart
	}
	return total
}

// --- Scheduling core ---

// schedule makes every issue decision currently possible. It is re-entrant
// safe: nested calls (from callbacks) set a flag and the outermost loop
// re-evaluates.
func (c *Controller) schedule() {
	if c.scheduling {
		c.rerun = true
		return
	}
	c.scheduling = true
	for {
		c.rerun = false
		c.maybeExitBurst()
		c.retryStalledWrites()
		c.resumeOrphanedPauses()
		if !c.burst {
			c.issueReads()
		}
		c.issueWrites()
		if !c.burst {
			c.issueFills()
		}
		if !c.rerun {
			break
		}
	}
	c.scheduling = false
}

// retryStalledWrites gives writes stalled at phase boundaries (Multi-RESET
// demand bumps, failed pause-resumes) priority over new issues. Writes
// stalled at a boundary are asked before paused writes waiting to resume:
// the order of the acquisitions is part of the result.
func (c *Controller) retryStalledWrites() {
	keep := c.waitingOps[:0]
	for _, op := range c.waitingOps {
		if c.sched.Reacquire(op.ticket) {
			c.schedulePhaseEnd(op)
		} else {
			keep = append(keep, op)
		}
	}
	c.waitingOps = keep

	keepR := c.resumeOps[:0]
	for _, op := range c.resumeOps {
		if c.sched.Reacquire(op.ticket) {
			op.paused = false
			op.resuming = false
			c.emitResume(op)
			c.schedulePhaseEnd(op)
		} else {
			keepR = append(keepR, op)
		}
	}
	c.resumeOps = keepR
}

// emitResume traces a paused write restarting.
func (c *Controller) emitResume(op *writeOp) {
	if c.hub.Tracing() {
		c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.resume",
			ID: op.bank, Addr: op.req.Addr})
	}
}

// resumeOrphanedPauses restarts paused writes no read is going to use: a
// burst began (reads are blocked anyway) or the pending read for their bank
// was served or went elsewhere. Without this, a pause taken just before a
// burst would strand its bank forever.
func (c *Controller) resumeOrphanedPauses() {
	for i := range c.banks {
		b := &c.banks[i]
		if b.wr == nil || !b.wr.paused || b.wr.resuming || b.readBusy {
			continue
		}
		if c.burst || !c.hasDemandReadFor(i) {
			c.tryResume(b.wr)
		}
	}
}

// hasDemandReadFor reports whether any queued demand read targets the bank.
func (c *Controller) hasDemandReadFor(bank int) bool {
	for _, req := range c.rdq {
		if c.amap.Bank(req.Addr) == bank {
			return true
		}
	}
	return false
}

// issueReads starts demand reads on available banks, applying write
// cancellation / pausing to banks busy with writes.
func (c *Controller) issueReads() {
	for i := 0; i < len(c.rdq); {
		req := c.rdq[i]
		bank := c.amap.Bank(req.Addr)
		b := &c.banks[bank]
		switch {
		case !b.busy && !b.readBusy:
			c.rdq = append(c.rdq[:i], c.rdq[i+1:]...)
			c.notifyReadSpace()
			c.startRead(bank, req, false)
			continue
		case b.wr != nil && !b.wr.paused && !b.readBusy:
			op := b.wr
			if c.canCancel(op) {
				c.cancelWrite(op)
				// Bank is free now; issue this read on the next
				// loop pass.
				c.rerun = true
				return
			}
			if c.cfg.WritePausing {
				op.pauseReq = true
			}
		case b.wr != nil && b.wr.paused && !b.readBusy:
			// Paused write: the array is free for one read.
			c.rdq = append(c.rdq[:i], c.rdq[i+1:]...)
			c.notifyReadSpace()
			c.startRead(bank, req, true)
			continue
		}
		i++
	}
}

// issueWrites starts writes per the paper's policy: writes issue when no
// demand read is pending, or unconditionally during a write burst. Hay et
// al.'s heuristic "issues writes continuously as long as power demands can
// be satisfied", so by default the scan continues past power-denied
// entries across the whole queue (this also makes sche-X — the same scan
// over an X-entry window — indistinguishable from the baseline at equal
// queue size, matching the paper's "little effect" finding).
// WriteQueueSched < 0 selects strict FIFO power order for ablation.
func (c *Controller) issueWrites() {
	if !c.burst && len(c.rdq) > 0 {
		return
	}
	window := len(c.wrq)
	if c.cfg.WriteQueueSched > 0 {
		window = c.cfg.WriteQueueSched
	}
	scanned := 0
	powerOOO := c.cfg.WriteQueueSched >= 0
	for i := 0; i < len(c.wrq) && scanned < window; {
		req := c.wrq[i]
		bank := c.amap.Bank(req.Addr)
		b := &c.banks[bank]
		if b.busy || b.readBusy || b.wr != nil {
			i++
			scanned++
			continue
		}
		ticket, ok := c.sched.TryStart(c.profileFor(req), &req.offer)
		if !ok {
			// Not admitted: the profile and the offer stay on the
			// request; the profile is revalidated — not rebuilt — on the
			// next attempt, and the offer re-asked only once the power
			// manager's epoch has moved.
			if !powerOOO {
				break
			}
			i++
			scanned++
			continue
		}
		c.wrq = append(c.wrq[:i], c.wrq[i+1:]...)
		c.notifyWriteSpace()
		c.startWrite(bank, req, ticket)
	}
}

// issueFills starts background fill reads on banks nothing else wants.
func (c *Controller) issueFills() {
	for i := 0; i < len(c.fillq); {
		req := c.fillq[i]
		bank := c.amap.Bank(req.Addr)
		b := &c.banks[bank]
		if b.busy || b.readBusy || b.wr != nil {
			i++
			continue
		}
		c.fillq = append(c.fillq[:i], c.fillq[i+1:]...)
		c.startRead(bank, req, false)
	}
}

func (c *Controller) notifyReadSpace() {
	if len(c.readSpaceWaiters) > 0 {
		fn := c.readSpaceWaiters[0]
		c.readSpaceWaiters = c.readSpaceWaiters[1:]
		fn()
	}
}

func (c *Controller) notifyWriteSpace() {
	if len(c.writeSpaceWaiters) > 0 {
		fn := c.writeSpaceWaiters[0]
		c.writeSpaceWaiters = c.writeSpaceWaiters[1:]
		fn()
	}
}

// --- Reads ---

// startRead occupies the bank for the array access, then transfers data on
// the channel and completes the request.
func (c *Controller) startRead(bank int, req *ReadRequest, duringPause bool) {
	b := &c.banks[bank]
	if duringPause {
		b.readBusy = true
	} else {
		b.busy = true
	}
	if req.Demand {
		c.demandReads.Inc()
	} else {
		c.fillsIssued.Inc()
	}
	arrayDone := c.cfg.MCToBank + c.cfg.ReadCycles()
	c.eng.After(arrayDone, func() {
		if duringPause {
			b.readBusy = false
			c.tryResume(b.wr)
		} else {
			b.busy = false
		}
		start := c.chanBus.Reserve(c.eng.Now(), transferCycles(c.cfg.L3LineB))
		doneAt := start + transferCycles(c.cfg.L3LineB) + c.cfg.MCToBank
		c.eng.At(doneAt, func() {
			if req.Demand {
				c.readLatency.Add(float64(c.eng.Now() - req.enqueued))
				if c.hub.Tracing() {
					c.hub.Emit(obs.Event{Kind: obs.Span, Cat: "mem", Name: "read",
						ID: bank, Addr: req.Addr, Dur: uint64(c.eng.Now() - req.enqueued)})
				}
			}
			if req.Done != nil {
				req.Done()
			}
			c.schedule()
		})
		c.schedule()
	})
}

// --- Writes ---

// profileFor returns the write's physical profile — the bridge's
// read-before-write comparison against stored content — serving the
// request's cached profile while its content-version and rotation tags
// still match. The profile stays cached on the request until the write
// completes, so denied issue attempts stop paying for rebuilds: a rebuild
// under unchanged tags is bit-identical by construction (Build seeds its
// draws from the content hash). A rebuild resets the request's offer, whose
// plans belong to the old profile.
func (c *Controller) profileFor(req *WriteRequest) *pcm.WriteProfile {
	ver := c.store.Writes(req.Addr)
	rot := c.rot.Offset(req.Addr)
	if req.profValid && req.profVer == ver && req.profRot == rot {
		return &req.prof
	}
	req.offer.Reset()
	old := c.store.Get(req.Addr)
	if old == nil {
		old = c.baseline(req.Addr, c.cfg.L3LineB)
	}
	// The composed rotation + half-stripe variant is served from the
	// precomputed table: no closure chain, no per-attempt allocations.
	mapF := c.mapTab.Select(rot, c.cfg.Chips,
		c.cfg.HalfStripe, c.amap.LineIndex(req.Addr)%2 == 1)
	c.builder.Build(&req.prof, req.Addr, old, req.Data, mapF, c.cfg.WriteTruncation)
	req.profValid, req.profVer, req.profRot = true, ver, rot
	return &req.prof
}

// startWrite occupies the bank and walks the write's power plan. The
// programming start is delayed by the data transfer and, for FPB schemes,
// the read-before-write on the DIMM-internal bus (Section 3.1).
func (c *Controller) startWrite(bank int, req *WriteRequest, ticket *core.Ticket) {
	b := &c.banks[bank]
	b.busy = true
	op := &writeOp{req: req, ticket: ticket, bank: bank, started: c.eng.Now()}
	b.wr = op
	if c.hub.Tracing() {
		c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.issue",
			ID: bank, Addr: req.Addr, V: float64(req.prof.Changed)})
		c.hub.Emit(obs.Event{Kind: obs.Meter, Cat: "mem", Name: "wrq.depth",
			ID: -1, V: float64(len(c.wrq))})
	}
	if c.rot != nil {
		c.rot.RecordWrite(req.Addr)
	}
	xfer := c.chanBus.Reserve(c.eng.Now(), transferCycles(c.cfg.L3LineB)) +
		transferCycles(c.cfg.L3LineB)
	begin := c.cfg.MCToBank + (xfer - c.eng.Now())
	if c.cfg.UsesIPM() {
		// Read-before-write: the array read proceeds inside the bank
		// the write already owns (banks read in parallel); only the
		// old data's transfer to the bridge serializes on the internal
		// DIMM bus.
		t := transferCycles(c.cfg.L3LineB)
		arrayDone := c.eng.Now() + c.cfg.MCToBank + c.cfg.ReadCycles()
		rbw := c.dimmBus.Reserve(arrayDone, t) + t - c.eng.Now()
		if rbw > begin {
			begin = rbw
		}
	}
	// Tracked via phaseEv so a cancellation arriving during the
	// pre-programming window (data transfer / read-before-write) kills
	// the write before its first pulse.
	op.phaseEv = c.eng.After(begin, func() {
		op.phaseEv = nil
		c.schedulePhaseEnd(op)
	})
}

// schedulePhaseEnd books the end-of-phase event for the op's current phase.
func (c *Controller) schedulePhaseEnd(op *writeOp) {
	op.phaseEv = c.eng.After(op.ticket.PhaseDuration(), func() { c.phaseEnd(op) })
}

// phaseEnd advances the write at an iteration boundary.
func (c *Controller) phaseEnd(op *writeOp) {
	op.phaseEv = nil
	switch c.sched.Advance(op.ticket) {
	case core.AdvanceDone:
		c.completeWrite(op)
	case core.AdvanceNext:
		if c.hub.Tracing() {
			c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.iter",
				ID: op.bank, Addr: op.req.Addr, V: float64(op.ticket.PhaseIndex())})
		}
		// Honor a pause request only outside bursts: during a burst
		// reads are blocked regardless, so pausing would just strand
		// the bank.
		if op.pauseReq && c.cfg.WritePausing && !c.burst {
			op.pauseReq = false
			op.paused = true
			c.sched.Pause(op.ticket)
			c.wpPauses.Inc()
			if c.hub.Tracing() {
				c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.pause",
					ID: op.bank, Addr: op.req.Addr})
			}
			c.schedule() // lets issueReads use the paused bank
			return
		}
		op.pauseReq = false
		c.schedulePhaseEnd(op)
		// IPM shrank the allocation at this boundary; freed tokens may
		// admit queued or stalled writes right now.
		c.schedule()
	case core.AdvanceWait:
		if c.hub.Tracing() {
			c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.stall",
				ID: op.bank, Addr: op.req.Addr})
		}
		c.waitingOps = append(c.waitingOps, op)
		c.schedule()
	}
}

// tryResume restarts a paused write after its intruding read finished (or
// was orphaned). On token shortage the op queues once on resumeOps.
func (c *Controller) tryResume(op *writeOp) {
	if op == nil || !op.paused || op.resuming {
		return
	}
	if c.sched.Reacquire(op.ticket) {
		op.paused = false
		c.emitResume(op)
		c.schedulePhaseEnd(op)
		return
	}
	op.resuming = true
	c.resumeOps = append(c.resumeOps, op)
}

// canCancel applies the write-cancellation policy guards.
func (c *Controller) canCancel(op *writeOp) bool {
	if !c.cfg.WriteCancellation {
		return false
	}
	if op.ticket.Progress() >= wcProgressThreshold {
		return false
	}
	if op.req.cancelled >= wcMaxCancels {
		return false
	}
	return float64(len(c.wrq)) < wcQueueWatermark*float64(c.cfg.WriteQueueEntries)
}

// cancelWrite aborts an in-flight write (write cancellation) and requeues
// it at the head of the write queue for full re-execution.
func (c *Controller) cancelWrite(op *writeOp) {
	if op.phaseEv != nil {
		c.eng.Cancel(op.phaseEv)
		op.phaseEv = nil
	}
	// A write stalled at a phase boundary must not be retried after
	// cancellation.
	for i, w := range c.waitingOps {
		if w == op {
			c.waitingOps = append(c.waitingOps[:i], c.waitingOps[i+1:]...)
			break
		}
	}
	c.sched.Cancel(op.ticket)
	b := &c.banks[op.bank]
	b.busy = false
	b.wr = nil
	op.req.cancelled++
	c.wcCancels.Inc()
	if c.hub.Tracing() {
		c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.cancel",
			ID: op.bank, Addr: op.req.Addr, V: float64(op.req.cancelled)})
	}
	// Re-issue: the profile stays cached on the request, still tagged
	// with its build-time version and offset, so if neither the line
	// content nor its rotation changed before the retry, the rebuild is
	// skipped — a rebuild under unchanged tags would be bit-identical
	// anyway — and the offer's plans are asked again.
	c.wrq = append([]*WriteRequest{op.req}, c.wrq...)
}

// completeWrite commits the new content, frees the bank and recycles the
// request with its storage.
func (c *Controller) completeWrite(op *writeOp) {
	req, prof := op.req, &op.req.prof
	if n := c.store.Update(req.Addr, req.Data); n > c.maxLineWr {
		c.maxLineWr = n
	}
	c.writesDone.Inc()
	c.recordWriteLatency(c.eng.Now() - req.enqueued)
	if c.hub.Tracing() {
		c.hub.Emit(obs.Event{Kind: obs.Span, Cat: "mem", Name: "write",
			ID: op.bank, Addr: req.Addr, V: float64(prof.Changed),
			Dur: uint64(c.eng.Now() - op.started)})
		if prof.Truncated > 0 {
			c.hub.Emit(obs.Event{Kind: obs.Instant, Cat: "mem", Name: "write.truncate",
				ID: op.bank, Addr: req.Addr, V: float64(prof.Truncated)})
		}
	}
	c.cellChanges.Add(float64(prof.Changed))
	c.writeEnergy.Add(prof.WriteEnergyPJ(c.cfg))
	req.Data = nil
	c.freeReqs = append(c.freeReqs, req)
	b := &c.banks[op.bank]
	b.busy = false
	b.wr = nil
	c.schedule()
}

// --- Telemetry ---

// Counts reports completed demand reads, issued fill reads, dropped fills,
// completed writes, WC cancellations and WP pauses.
func (c *Controller) Counts() (reads, fills, dropped, writes, cancels, pauses uint64) {
	return c.demandReads.Value(), c.fillsIssued.Value(), c.fillsDropped.Value(),
		c.writesDone.Value(), c.wcCancels.Value(), c.wpPauses.Value()
}

// ReadLatency returns the demand-read latency summary (cycles).
func (c *Controller) ReadLatency() *stats.Summary { return &c.readLatency }

// WriteLatency returns the write enqueue-to-completion latency summary.
func (c *Controller) WriteLatency() *stats.Summary { return &c.writeLatency }

// recordWriteLatency adds one write's enqueue-to-completion latency to the
// summary and the percentile histogram.
func (c *Controller) recordWriteLatency(lat sim.Cycle) {
	c.writeLatency.Add(float64(lat))
	c.writeLatHist.Observe(float64(lat / latBucketCycles))
}

// WriteLatencyPercentiles reports the P50/P95/P99 write enqueue-to-
// completion latency in cycles, quantized to latBucketCycles.
func (c *Controller) WriteLatencyPercentiles() (p50, p95, p99 float64) {
	h := c.writeLatHist
	return h.Quantile(0.50) * latBucketCycles,
		h.Quantile(0.95) * latBucketCycles,
		h.Quantile(0.99) * latBucketCycles
}

// CellChanges returns the per-write changed-cell summary (Figure 2).
func (c *Controller) CellChanges() *stats.Summary { return &c.cellChanges }

// WriteEnergy returns the per-write programming-energy summary (pJ).
func (c *Controller) WriteEnergy() *stats.Summary { return &c.writeEnergy }

// Endurance reports wear telemetry: distinct lines written and the write
// count of the most-written line (the hot-line figure intra-line wear
// leveling targets).
func (c *Controller) Endurance() (distinctLines int, maxWrites uint64) {
	return c.store.Len(), c.maxLineWr
}

// Drained reports whether no work remains anywhere in the subsystem.
func (c *Controller) Drained() bool {
	if len(c.rdq)+len(c.fillq)+len(c.wrq)+len(c.waitingOps)+len(c.resumeOps) > 0 {
		return false
	}
	for i := range c.banks {
		if c.banks[i].busy || c.banks[i].readBusy || c.banks[i].wr != nil {
			return false
		}
	}
	return true
}
