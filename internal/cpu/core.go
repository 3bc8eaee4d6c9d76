// Package cpu models the simulated in-order cores: each core consumes its
// trace (gap instructions at one cycle each, then a memory access through
// its private cache hierarchy), blocks on demand PCM reads and on full
// memory-controller queues, and retires instructions until its budget is
// spent. This is the trace-driven equivalent of the paper's 8-core, 4 GHz,
// single-issue in-order CMP.
package cpu

import (
	"fpb/internal/cache"
	"fpb/internal/mem"
	"fpb/internal/sim"
	"fpb/internal/trace"
	"fpb/internal/workload"
)

// Core is one simulated CPU core.
type Core struct {
	ID int

	eng  *sim.Engine
	cfg  *sim.Config
	hier *cache.Hierarchy
	src  trace.Source
	mut  *workload.Mutator
	mc   *mem.Controller

	budget       uint64
	instrRetired uint64
	finished     bool
	finishCycle  sim.Cycle
	onFinish     func(*Core)

	// Per-core memory telemetry for PKI calibration.
	demandReads uint64
	memWrites   uint64

	// pendingWBs are dirty evictions not yet accepted by the write queue.
	pendingWBs []wbItem
	// after the blocking phase, the access may still owe a demand read.
	pendingFill uint64
	hasFill     bool
	tailLatency sim.Cycle

	// Bound method values are created once here: evaluating c.method on
	// the step hot path would allocate a fresh closure per call.
	drainFn func()
	issueFn func()
	readyFn func()
}

type wbItem struct {
	addr uint64
	data []byte
}

// New creates a core. onFinish runs once when the instruction budget is
// retired.
func New(id int, eng *sim.Engine, cfg *sim.Config, hier *cache.Hierarchy,
	src trace.Source, mut *workload.Mutator, mc *mem.Controller, onFinish func(*Core)) *Core {
	c := &Core{
		ID: id, eng: eng, cfg: cfg, hier: hier, src: src, mut: mut, mc: mc,
		budget: cfg.InstrPerCore, onFinish: onFinish,
	}
	c.drainFn = c.drainWritebacks
	c.issueFn = c.issueDemandRead
	c.readyFn = c.readDone
	return c
}

// Start begins execution at the current cycle.
func (c *Core) Start() { c.step() }

// Hierarchy returns the core's private cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Finished reports whether the core retired its budget.
func (c *Core) Finished() bool { return c.finished }

// FinishCycle reports when the core finished (valid once Finished).
func (c *Core) FinishCycle() sim.Cycle { return c.finishCycle }

// InstrRetired reports retired instructions so far.
func (c *Core) InstrRetired() uint64 { return c.instrRetired }

// MemCounts reports the core's demand reads and memory writes (writebacks
// it enqueued), for R/W-PKI measurement.
func (c *Core) MemCounts() (reads, writes uint64) { return c.demandReads, c.memWrites }

// step fetches and executes the next access.
func (c *Core) step() {
	if c.finished {
		return
	}
	if c.instrRetired >= c.budget {
		c.finish()
		return
	}
	a, ok := c.src.Next()
	if !ok {
		c.finish()
		return
	}
	c.instrRetired += a.Instructions()

	out := c.hier.Access(a.Addr, a.Write)
	latency := sim.Cycle(a.Gap) + c.hier.HitLatency(out.Level)

	// Queue the side effects: fill reads are fire-and-forget; dirty
	// writebacks must be accepted by the write queue before the core
	// proceeds (backpressure), and a memory-level miss blocks on the
	// demand read. out's slices are valid until this hierarchy's next
	// Access; the controller calls below may step other cores, never this
	// one, so both loops read them intact.
	for _, fr := range out.FillReads {
		c.mc.EnqueueFillRead(fr)
	}
	c.pendingWBs = c.pendingWBs[:0]
	for _, wb := range out.Writebacks {
		c.pendingWBs = append(c.pendingWBs, wbItem{addr: wb, data: c.synthesize(wb)})
	}
	c.hasFill = out.Level == cache.LevelMemory
	c.pendingFill = out.FillAddr
	c.tailLatency = latency
	c.eng.After(latency, c.drainFn)
}

// synthesize produces the new content of a written-back line using the
// core's value-mutation model over the line's current PCM content.
func (c *Core) synthesize(lineAddr uint64) []byte {
	old := c.mc.Store().Get(lineAddr)
	if old == nil {
		old = workload.BaselineContent(lineAddr, c.cfg.L3LineB)
	}
	return c.mut.Next(old, c.cfg.L3LineB)
}

// drainWritebacks pushes pending writebacks into the write queue, stalling
// on backpressure, then issues the demand read if one is owed.
func (c *Core) drainWritebacks() {
	for len(c.pendingWBs) > 0 {
		wb := c.pendingWBs[0]
		if !c.mc.TryEnqueueWrite(wb.addr, wb.data) {
			c.mc.WaitWriteSpace(c.drainFn)
			return
		}
		c.memWrites++
		c.pendingWBs = c.pendingWBs[1:]
	}
	c.issueDemandRead()
}

// issueDemandRead blocks the core on the PCM read for a memory-level miss.
func (c *Core) issueDemandRead() {
	if !c.hasFill {
		c.step()
		return
	}
	addr := c.pendingFill
	if !c.mc.TryEnqueueRead(addr, c.readyFn) {
		c.mc.WaitReadSpace(func() {
			if !c.mc.TryEnqueueRead(addr, c.readyFn) {
				// Space was taken by another waiter; queue again.
				c.mc.WaitReadSpace(c.issueFn)
				return
			}
			c.demandReads++
			c.hasFill = false
		})
		return
	}
	c.demandReads++
	c.hasFill = false
}

// readDone resumes execution after the demand read returns.
func (c *Core) readDone() {
	c.step()
}

func (c *Core) finish() {
	c.finished = true
	c.finishCycle = c.eng.Now()
	if c.onFinish != nil {
		c.onFinish(c)
	}
}

// CPI reports the core's cycles-per-instruction at finish time (or so
// far, if still running).
func (c *Core) CPI() float64 {
	if c.instrRetired == 0 {
		return 0
	}
	cyc := c.finishCycle
	if !c.finished {
		cyc = c.eng.Now()
	}
	return float64(cyc) / float64(c.instrRetired)
}
