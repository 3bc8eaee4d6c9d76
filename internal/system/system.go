// Package system assembles a full simulated machine — cores, cache
// hierarchies, workload generators, the memory controller/bridge and the
// FPB power scheduler — from one sim.Config plus a workload, runs it to the
// instruction budget, and reports the metrics every experiment consumes
// (CPI, speedup inputs, write throughput, write-burst fraction, token
// telemetry).
package system

import (
	"fmt"
	"io"
	"sync"

	"fpb/internal/cache"
	"fpb/internal/cpu"
	"fpb/internal/mem"
	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/trace"
	"fpb/internal/workload"
)

// System is one assembled machine.
type System struct {
	Cfg   sim.Config
	Eng   *sim.Engine
	MC    *mem.Controller
	Cores []*cpu.Core

	// Obs is the machine's observability hub: every component's metrics
	// registry, plus the attach point for tracing (EnableTrace) and
	// time-series probes (EnableProbes).
	Obs *obs.Hub

	gens     []*workload.Generator
	muts     []*workload.Mutator
	finished int
	prober   *obs.Prober
	probeEv  *sim.Event

	// baseHiers are the pristine pre-run cache baselines, one per core —
	// shared read-only references into the prefill snapshot cache, not
	// copies. Checkpoints serialize each hierarchy as a sparse delta
	// against its baseline; the restore side regenerates the identical
	// baseline from the deterministic prefill and applies the delta.
	baseHiers []*cache.Hierarchy

	// Warmup / checkpoint state. When Cfg.WarmupCycles > 0, the system is
	// built under the warmup configuration (measCfg keeps the measurement
	// one); Run quiesces at the barrier, rebinds Cfg to measCfg in place and
	// resumes. measStart is the barrier cycle measurement counts from;
	// atBarrier marks a system sitting quiesced at the barrier (restored
	// from a checkpoint, or mid-way through Run's own barrier sequence).
	measCfg     sim.Config
	measStart   sim.Cycle
	atBarrier   bool
	barrierHook func(*System)
	wlName      string
}

// SetBarrierHook installs fn to run once when the warmup phase quiesces at
// the barrier — after measurement statistics reset, before the configuration
// rebinds to the measurement values. This is the checkpoint capture point:
// the hook sees the system exactly as EncodeCheckpoint expects it. Call
// before Run; ignored when the run has no warmup phase.
func (s *System) SetBarrierHook(fn func(*System)) { s.barrierHook = fn }

// Result carries the metrics of one run.
type Result struct {
	Workload string
	Scheme   string

	CPI    float64
	Cycles sim.Cycle
	Instrs uint64

	DemandReads uint64
	Writes      uint64
	MeasRPKI    float64
	MeasWPKI    float64

	BurstFraction  float64
	AvgCellChanges float64
	AvgReadLatency float64
	// WriteThroughput is completed line writes per million cycles.
	WriteThroughput float64

	MaxGCPTokens  float64
	MaxGCPGrant   float64
	MaxGCPSegment float64
	AvgGCPTokens  float64
	WastedPower   float64
	WCCancels     uint64
	WPPauses      uint64
	MRAdmissions  uint64
	MultiRound    uint64

	// WriteLatP50/P95/P99 are write enqueue-to-completion latency
	// percentiles in cycles (quantized to the controller's histogram
	// bucket width).
	WriteLatP50 float64
	WriteLatP95 float64
	WriteLatP99 float64

	// AvgWriteEnergyPJ is the mean programming energy per line write.
	AvgWriteEnergyPJ float64
	// DistinctLines / MaxLineWrites summarize write wear (endurance).
	DistinctLines int
	MaxLineWrites uint64

	// Metrics is the end-of-run snapshot of every series in the system's
	// metrics registry, keyed by hierarchical name.
	Metrics map[string]float64
}

// Build wires a system for the configuration and workload. The workload
// must have exactly cfg.Cores core profiles. When cfg.WarmupCycles > 0 the
// system is built under cfg.WarmupConfig(): Run executes the warmup phase,
// quiesces at the barrier and rebinds to cfg before measuring.
func Build(cfg sim.Config, wl workload.Workload) (*System, error) {
	return build(cfg, wl, false)
}

// build assembles the machine. restored builds the empty shell a checkpoint
// image is loaded into: components are constructed directly under the
// measurement config (their config-derived structure then matches the cold
// run's post-rebind state), caches are not prefilled, and cores are parked
// at the barrier instead of armed for warmup.
func build(cfg sim.Config, wl workload.Workload, restored bool) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(wl.Cores) != cfg.Cores {
		return nil, fmt.Errorf("system: workload %s has %d cores, config wants %d",
			wl.Name, len(wl.Cores), cfg.Cores)
	}
	warmup := cfg.WarmupCycles > 0
	buildCfg := cfg
	if warmup && !restored {
		buildCfg = cfg.WarmupConfig()
	}
	eng := sim.NewEngine()
	// Every component takes &s.Cfg — one shared config — so the barrier
	// sequence can swap warmup for measurement values in place and have the
	// whole machine observe the change.
	s := &System{Cfg: buildCfg, measCfg: cfg, Eng: eng, wlName: wl.Name}
	mc := mem.NewController(eng, &s.Cfg, workload.BaselineContent)
	s.MC, s.Obs = mc, mc.Hub()
	s.registerSystemMetrics()

	root := sim.NewRNG(cfg.Seed)
	for i, prof := range wl.Cores {
		coreRNG := root.Derive(uint64(1000 + i))
		gen := workload.NewGenerator(prof, &s.Cfg, i, coreRNG.Derive(1))
		// Both paths start from the same deterministic prefill: the restored
		// build's hierarchy holds the baseline content the image's cache
		// deltas apply onto (the generator still has its build-time cursors
		// here — its own state restores after the shell is assembled).
		hier, base := prefilledHierarchy(&s.Cfg, gen, prof)
		mut := workload.NewMutator(prof.Value, coreRNG.Derive(2))
		s.baseHiers = append(s.baseHiers, base)
		core := cpu.New(i, eng, &s.Cfg, hier, gen, mut, mc, func(*cpu.Core) { s.finished++ })
		if warmup && !restored {
			core.SetBarrier(sim.Cycle(cfg.WarmupCycles))
		}
		if restored {
			core.RestoreParked()
		}
		s.Cores = append(s.Cores, core)
		s.gens = append(s.gens, gen)
		s.muts = append(s.muts, mut)
	}
	if restored {
		s.atBarrier = true
	}
	return s, nil
}

// prefillKey captures everything prefill reads: the generator's region
// layout and cursors (which the insert set and the shuffle seed are pure
// functions of), the profile's access-mix rates, and the full cache
// geometry. Two cores with equal keys get byte-identical prefilled
// hierarchies, so the result can be snapshotted and cloned instead of
// re-running the multi-hundred-thousand-access warm-up — by far the
// largest cost of building a system — once per (workload, scheme) pair.
type prefillKey struct {
	rStart, wStart, span uint64
	rCur, wCur           uint64
	hotStart, hotSpan    uint64
	rpki, wpki           float64
	l1KB, l1Line, l1Ways int
	l2KB, l2Line, l2Ways int
	l3MB, l3Line, l3Ways int
}

// maxPrefillSnapshotBytes bounds the snapshot cache by the summed metadata
// size of its snapshots. A snapshot is one core's three cache levels: 2.5
// MiB at the default geometry, so ~200 fit, more than the distinct
// (profile, core-slot) pairs of a full figure sweep (Fig. 18 has 86, 216
// MiB); at Fig. 20's 128 MB L3 a snapshot is 8.5 MiB and ~60 fit.
const maxPrefillSnapshotBytes = 512 << 20

var prefillSnapshots struct {
	sync.Mutex
	m     map[prefillKey]*prefillSnapshot
	bytes int // summed MetaBytes of the snapshots in m
	stamp uint64
}

type prefillSnapshot struct {
	hier *cache.Hierarchy
	used uint64
}

// prefilledHierarchy returns a freshly prefilled hierarchy for the core,
// serving it from the snapshot cache when an identical warm-up has already
// run (the usual case: every scheme of a figure re-simulates the same
// workloads). Cached or computed, the returned hierarchy is bit-identical —
// prefill is a pure function of prefillKey — and exclusively owned by the
// caller.
func prefilledHierarchy(cfg *sim.Config, gen *workload.Generator, prof workload.CoreProfile) (owned, base *cache.Hierarchy) {
	rStart, _ := gen.StreamReadRegion()
	wStart, _ := gen.StreamWriteRegion()
	hotStart, hotSpan := gen.HotRegion()
	k := prefillKey{
		rStart: rStart, wStart: wStart, span: gen.SpanLines(),
		rCur: gen.ReadCursor(), wCur: gen.WriteCursor(),
		hotStart: hotStart, hotSpan: hotSpan,
		rpki: prof.RPKI, wpki: prof.WPKI,
		l1KB: cfg.L1SizeKB, l1Line: cfg.L1LineB, l1Ways: cfg.L1Ways,
		l2KB: cfg.L2SizeKB, l2Line: cfg.L2LineB, l2Ways: cfg.L2Ways,
		l3MB: cfg.L3SizeMB, l3Line: cfg.L3LineB, l3Ways: cfg.L3Ways,
	}
	c := &prefillSnapshots
	c.Lock()
	if e, ok := c.m[k]; ok {
		c.stamp++
		e.used = c.stamp
		h := e.hier.Clone(cfg)
		c.Unlock()
		return h, e.hier
	}
	c.Unlock()

	h := cache.NewHierarchy(cfg)
	prefill(h, gen, prof)

	c.Lock()
	defer c.Unlock()
	c.stamp++
	if e, ok := c.m[k]; ok {
		// A concurrent build prefilled the same key first; its snapshot
		// holds the identical content.
		e.used = c.stamp
		return h, e.hier
	}
	if c.m == nil {
		c.m = make(map[prefillKey]*prefillSnapshot)
	}
	size := h.MetaBytes()
	for len(c.m) > 0 && c.bytes+size > maxPrefillSnapshotBytes {
		var oldest prefillKey
		var oldestUsed uint64 = ^uint64(0)
		for kk, e := range c.m {
			if e.used < oldestUsed {
				oldestUsed = e.used
				oldest = kk
			}
		}
		c.bytes -= c.m[oldest].hier.MetaBytes()
		delete(c.m, oldest)
	}
	snap := &prefillSnapshot{hier: h.Clone(cfg), used: c.stamp}
	c.m[k] = snap
	c.bytes += size
	// The snapshot's copy doubles as the checkpoint delta baseline: map
	// entries are cloned on every hit and never mutated, so the reference
	// stays pristine even after eviction drops it from the map.
	return h, snap.hier
}

// prefill warms one core's caches to the measurement steady state
// (DESIGN.md §3): the L3 holds the lines the stream walks touched just
// before the window — interleaved load/store-region lines in their access
// ratio, inserted oldest-first ending right behind each stream cursor —
// and the hot region is resident in L2/L3. Capacity writebacks and
// streaming misses then behave from instruction 0 exactly as they would
// after a multi-hundred-million-instruction cold phase.
func prefill(h *cache.Hierarchy, gen *workload.Generator, prof workload.CoreProfile) {
	lineB := uint64(h.L3().LineBytes())
	if prof.RPKI > 0 {
		rStart, _ := gen.StreamReadRegion()
		wStart, _ := gen.StreamWriteRegion()
		span := gen.SpanLines()
		wFrac := prof.WPKI / prof.RPKI
		// Insert twice the capacity so that, despite the shuffled
		// order's binomial spread of inserts per set, every set ends
		// completely full (an underfilled set would absorb its first
		// few fills without evicting, suppressing early writebacks).
		total := uint64(h.L3CapacityLines()) * 2
		nW := uint64(float64(total) * wFrac)
		nR := total - nW
		// The resident set is the lines just behind each stream cursor,
		// dirty for the store stream. Insertion order is shuffled so
		// per-set LRU ages are independent of the cursors' relative
		// phase: early-eviction victims are then dirty with the true
		// steady-state probability (wFrac) for every seed, instead of
		// whatever the arbitrary phase alignment would dictate. Insert k
		// of the first nR is the k-th load-region line behind the read
		// cursor, insert nR+k the k-th store-region line behind the write
		// cursor. The batch replays the shuffled sequence one L3 set at a
		// time, which leaves exactly the state of inserting it one by one.
		rCur, wCur := gen.ReadCursor(), gen.WriteCursor()
		rng := sim.NewRNG(rCur*31 + wCur*17 + 0xC0FFEE)
		perm := make([]int, nR+nW)
		rng.Perm(perm)
		h.L3().AccessBatch(len(perm), func(i int) (uint64, bool) {
			k := uint64(perm[i])
			if k < nR {
				return rStart + (rCur+span-1-k)%span*lineB, false
			}
			return wStart + (wCur+span-1-(k-nR))%span*lineB, true
		})
	}
	// Hot region last (most recent): full-path accesses warm L1/L2/L3.
	hotStart, hotSpan := gen.HotRegion()
	for addr := hotStart; addr < hotStart+hotSpan; addr += 64 {
		h.Access(addr, false)
	}
	h.ResetStats()
}

// registerSystemMetrics adds machine-level series to the hub registry.
func (s *System) registerSystemMetrics() {
	s.Obs.Gauge("sim.cycle", func() float64 { return float64(s.Eng.Now()) })
	s.Obs.Gauge("sim.events_run", func() float64 { return float64(s.Eng.EventsRun()) })
	s.Obs.Gauge("sys.cores.finished", func() float64 { return float64(s.finished) })
}

// EnableTrace attaches a tracer to the machine's hub. If the tracer admits
// the "engine" category, the event-loop dispatch hook is installed too
// (one sampled record per simulation event — opt-in, it is voluminous).
// Call before Run; the caller owns Close.
func (s *System) EnableTrace(t *obs.Tracer) {
	s.Obs.SetTracer(t)
	if t != nil && t.Enabled("engine") {
		s.Eng.SetDispatchHook(func(now sim.Cycle, ran uint64) {
			t.Emit(obs.Event{Cycle: uint64(now), Kind: obs.Instant, Cat: "engine",
				Name: "dispatch", ID: -1, V: float64(ran)})
		})
	}
}

// EnableProbes samples every registered series to w as CSV every interval
// cycles, starting at the first interval boundary after Run begins. Call
// before Run. The probe event keeps the heap occupied, so it watches event
// progress: if nothing but the probe itself ran for three intervals it
// stops rescheduling, preserving Run's drained-heap deadlock detection.
func (s *System) EnableProbes(interval sim.Cycle, w io.Writer) *obs.Prober {
	if interval == 0 || w == nil {
		return nil
	}
	s.prober = obs.NewProber(s.Obs.Registry(), w)
	var lastRan uint64
	idle := 0
	var tick func()
	tick = func() {
		s.probeEv = nil
		ran := s.Eng.EventsRun()
		if ran-lastRan <= 1 {
			idle++
		} else {
			idle = 0
		}
		lastRan = ran
		s.prober.Sample(uint64(s.Eng.Now()))
		if idle < 3 && s.finished < len(s.Cores) {
			s.probeEv = s.Eng.After(interval, tick)
		}
	}
	s.probeEv = s.Eng.After(interval, tick)
	return s.prober
}

// Run executes until every core retires its budget (or the event heap
// drains, which indicates a deadlock and panics). It returns the collected
// metrics. A run with a warmup phase first executes to the quiesce barrier
// (see runWarmup); a system restored from a checkpoint starts at the barrier
// and skips straight to the measured phase.
func (s *System) Run() Result {
	if s.atBarrier {
		s.resumeMeasurement()
	} else {
		for _, c := range s.Cores {
			c.Start()
		}
		if s.Cfg.WarmupCycles > 0 {
			s.runWarmup()
			s.resumeMeasurement()
		}
	}
	for s.finished < len(s.Cores) {
		if !s.Eng.Step() {
			s.MC.DumpState()
			panic(fmt.Sprintf("system: deadlock — %d/%d cores finished, no events pending",
				s.finished, len(s.Cores)))
		}
	}
	if s.probeEv != nil {
		s.Eng.Cancel(s.probeEv)
		s.probeEv = nil
	}
	return s.collect()
}

// runWarmup executes the warmup phase to quiescence: cores park at the first
// instruction boundary past Cfg.WarmupCycles, in-flight memory work drains,
// and the event heap runs dry. It then verifies the barrier invariant, resets
// every measurement statistic, fires the barrier hook (the checkpoint capture
// point), and rebinds the shared config to the measurement values. The exact
// barrier cycle is the drain time, not WarmupCycles itself: it is a
// deterministic function of (warmup config, workload), which is precisely
// what the checkpoint key hashes.
func (s *System) runWarmup() {
	for s.Eng.Step() {
	}
	parked := 0
	for _, c := range s.Cores {
		if c.Parked() || c.Finished() {
			parked++
		}
	}
	if parked < len(s.Cores) || !s.MC.Quiesced() || s.Eng.Pending() != 0 {
		s.MC.DumpState()
		panic(fmt.Sprintf("system: warmup failed to quiesce — %d/%d cores parked, MC quiesced %v, %d events pending",
			parked, len(s.Cores), s.MC.Quiesced(), s.Eng.Pending()))
	}
	s.measStart = s.Eng.Now()
	s.MC.ResetMeasurement()
	if s.barrierHook != nil {
		s.barrierHook(s)
	}
	// In-place rebind: every component reads *(&s.Cfg), so assigning here
	// switches the whole machine to the measurement configuration. The
	// controller and power manager then re-derive their config-dependent
	// structures (mapping tables, rotation interval, pool capacities).
	s.Cfg = s.measCfg
	s.MC.Rebind()
	s.atBarrier = true
}

// resumeMeasurement launches the measured phase from the barrier: cores are
// un-parked in ID order (so event sequence numbers — and therefore all
// downstream tie-breaking — match between the cold and the restored path).
func (s *System) resumeMeasurement() {
	s.atBarrier = false
	for _, c := range s.Cores {
		c.ResumeMeasurement()
	}
}

func (s *System) collect() Result {
	var r Result
	r.Scheme = s.Cfg.Scheme.String()
	var cycles uint64
	for _, c := range s.Cores {
		r.Instrs += c.InstrRetired()
		fc := c.FinishCycle()
		if !c.Finished() {
			fc = s.Eng.Now()
		}
		if fc < s.measStart {
			fc = s.measStart
		}
		// Per-core cycle counts (and r.Cycles below) are measured from the
		// warmup barrier, so CPI and the rate denominators cover only the
		// measured phase. measStart is 0 for runs without warmup.
		cycles += uint64(fc - s.measStart)
		reads, writes := c.MemCounts()
		r.DemandReads += reads
		r.Writes += writes
	}
	r.Cycles = s.Eng.Now() - s.measStart
	if r.Instrs > 0 {
		r.CPI = float64(cycles) / float64(r.Instrs)
		ki := float64(r.Instrs) / 1000
		r.MeasRPKI = float64(r.DemandReads) / ki
		r.MeasWPKI = float64(r.Writes) / ki
	}
	if r.Cycles > 0 {
		r.BurstFraction = float64(s.MC.BurstCycles()) / float64(r.Cycles)
		_, _, _, writesDone, cancels, pauses := s.MC.Counts()
		r.WriteThroughput = float64(writesDone) / float64(r.Cycles) * 1e6
		r.WCCancels = cancels
		r.WPPauses = pauses
	}
	r.AvgCellChanges = s.MC.CellChanges().Mean()
	r.AvgReadLatency = s.MC.ReadLatency().Mean()
	r.WriteLatP50, r.WriteLatP95, r.WriteLatP99 = s.MC.WriteLatencyPercentiles()
	r.AvgWriteEnergyPJ = s.MC.WriteEnergy().Mean()
	r.DistinctLines, r.MaxLineWrites = s.MC.Endurance()
	mgr := s.MC.Scheduler().Manager()
	r.MaxGCPTokens = mgr.MaxGCPOut()
	r.MaxGCPGrant = mgr.MaxGCPGrant()
	r.MaxGCPSegment = mgr.MaxGCPSegment()
	r.AvgGCPTokens = mgr.AvgGCPPerWrite()
	r.WastedPower = mgr.WastedInputPower()
	_, _, mr, rounds, _, _ := s.MC.Scheduler().Stats()
	r.MRAdmissions = mr
	r.MultiRound = rounds
	r.Metrics = s.Obs.Registry().Values()
	return r
}

// BuildFromSources assembles a system whose cores replay externally
// provided traces (e.g. files written by cmd/tracegen) instead of live
// generators. classes supplies each core's value-mutation model for
// writeback content synthesis. Caches start cold — a trace carries no
// region metadata to prefill from — so short replays under-report
// writebacks relative to generated runs; replay is intended for
// functional studies and cross-checking stored traces.
func BuildFromSources(cfg sim.Config, sources []trace.Source, classes []workload.ValueClass) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores || len(classes) != cfg.Cores {
		return nil, fmt.Errorf("system: %d sources / %d classes for %d cores",
			len(sources), len(classes), cfg.Cores)
	}
	eng := sim.NewEngine()
	mc := mem.NewController(eng, &cfg, workload.BaselineContent)
	s := &System{Cfg: cfg, Eng: eng, MC: mc, Obs: mc.Hub()}
	s.registerSystemMetrics()
	root := sim.NewRNG(cfg.Seed)
	for i, src := range sources {
		hier := cache.NewHierarchy(&s.Cfg)
		mut := workload.NewMutator(classes[i], root.Derive(uint64(2000+i)))
		core := cpu.New(i, eng, &s.Cfg, hier, src, mut, mc, func(*cpu.Core) { s.finished++ })
		s.Cores = append(s.Cores, core)
	}
	return s, nil
}

// Release returns per-core cache metadata to the allocation pool. Call only
// when done with the system (after Run + metric collection); the system must
// not be used afterwards.
func (s *System) Release() {
	for _, c := range s.Cores {
		c.Hierarchy().Release()
	}
}

// RunWorkload is the one-call helper most experiments use: build and run
// the named workload under the configuration.
func RunWorkload(cfg sim.Config, name string) (Result, error) {
	wl, err := workload.ByName(name, cfg.Cores)
	if err != nil {
		return Result{}, err
	}
	sys, err := Build(cfg, wl)
	if err != nil {
		return Result{}, err
	}
	res := sys.Run()
	res.Workload = name
	sys.Release()
	return res, nil
}

// Speedup computes CPI_baseline / CPI_tech (Eq. 7).
func Speedup(baseline, tech Result) float64 {
	if tech.CPI == 0 {
		return 0
	}
	return baseline.CPI / tech.CPI
}
