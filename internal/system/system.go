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

	finished  int
	prober    *obs.Prober
	probeNext sim.Cycle // the next interval boundary to sample
	probeStep sim.Cycle
}

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
// must have exactly cfg.Cores core profiles. Every core's caches start
// prefilled to the measurement steady state (see prefill).
func Build(cfg sim.Config, wl workload.Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(wl.Cores) != cfg.Cores {
		return nil, fmt.Errorf("system: workload %s has %d cores, config wants %d",
			wl.Name, len(wl.Cores), cfg.Cores)
	}
	eng := sim.NewEngine()
	s := &System{Cfg: cfg, Eng: eng}
	mc := mem.NewController(eng, &s.Cfg, workload.BaselineContent)
	s.MC, s.Obs = mc, mc.Hub()
	s.registerSystemMetrics()

	root := sim.NewRNG(cfg.Seed)
	for i, prof := range wl.Cores {
		coreRNG := root.Derive(uint64(1000 + i))
		gen := workload.NewGenerator(prof, &s.Cfg, i, coreRNG.Derive(1))
		hier := prefilledHierarchy(&s.Cfg, gen, prof)
		mut := workload.NewMutator(prof.Value, coreRNG.Derive(2))
		core := cpu.New(i, eng, &s.Cfg, hier, gen, mut, mc, func(*cpu.Core) { s.finished++ })
		s.Cores = append(s.Cores, core)
	}
	return s, nil
}

// prefillKey captures everything prefill reads: the generator's region
// layout and cursors (which the insert set and the shuffle seed are pure
// functions of), the profile's access-mix rates, and the full cache
// geometry. Two cores with equal keys get byte-identical prefilled
// hierarchies, so the result can be published once as a snapshot and
// handed to every simulation as a copy-on-write child, instead of drawing
// the insert shuffle again once per (workload, scheme) pair.
type prefillKey struct {
	rStart, wStart, span uint64
	rCur, wCur           uint64
	hotStart, hotSpan    uint64
	rpki, wpki           float64
	l1KB, l1Line, l1Ways int
	l2KB, l2Line, l2Ways int
	l3MB, l3Line, l3Ways int
}

func newPrefillKey(cfg *sim.Config, gen *workload.Generator, prof workload.CoreProfile) prefillKey {
	rStart, _ := gen.StreamReadRegion()
	wStart, _ := gen.StreamWriteRegion()
	hotStart, hotSpan := gen.HotRegion()
	return prefillKey{
		rStart: rStart, wStart: wStart, span: gen.SpanLines(),
		rCur: gen.ReadCursor(), wCur: gen.WriteCursor(),
		hotStart: hotStart, hotSpan: hotSpan,
		rpki: prof.RPKI, wpki: prof.WPKI,
		l1KB: cfg.L1SizeKB, l1Line: cfg.L1LineB, l1Ways: cfg.L1Ways,
		l2KB: cfg.L2SizeKB, l2Line: cfg.L2LineB, l2Ways: cfg.L2Ways,
		l3MB: cfg.L3SizeMB, l3Line: cfg.L3LineB, l3Ways: cfg.L3Ways,
	}
}

// maxPrefillSnapshotBytes bounds the snapshot cache by the summed MetaBytes
// of its snapshots. A snapshot is one core's prefilled hierarchy, the
// parent of every simulation's copy-on-write child; it holds no way array.
// At the default geometry it is about 1.0 MiB (the L3's insert positions
// and each level's owned bits), so ~500 fit, more than the distinct
// (profile, core-slot) pairs of a full figure sweep (Fig. 18 has 86); at
// Fig. 20's 128 MB L3 a snapshot is 4.0 MiB and ~127 fit.
const maxPrefillSnapshotBytes = 512 << 20

var prefillSnapshots struct {
	sync.Mutex
	m        map[prefillKey]*prefillSnapshot
	bytes    int // summed MetaBytes of the published snapshots in m
	stamp    uint64
	prefills uint64 // prefills started
}

// prefillSnapshot is one key's entry. It enters m when its prefill starts,
// so that a concurrent miss on the key waits for that prefill instead of
// drawing the same shuffle again.
type prefillSnapshot struct {
	hier  *cache.Hierarchy // set once, before ready closes; never changes after
	used  uint64
	ready chan struct{} // closed once hier is set or the prefill panicked
}

// prefilledHierarchy returns a prefilled hierarchy for the core that the
// caller owns: a copy-on-write child of the snapshot for its prefillKey,
// prefilling and publishing that snapshot first if no identical warm-up has
// run (the usual case is that one has: every scheme of a figure
// re-simulates the same workloads). Each key is prefilled once: a caller
// that misses while another prefills the key waits for that snapshot, so
// how much prefill a sweep runs does not depend on which simulations
// happen to start together. Prefill is a pure function of prefillKey, so
// the child is bit-identical either way. A published snapshot never
// changes, so children on any goroutine read it without locks.
func prefilledHierarchy(cfg *sim.Config, gen *workload.Generator, prof workload.CoreProfile) *cache.Hierarchy {
	k := newPrefillKey(cfg, gen, prof)
	c := &prefillSnapshots
	c.Lock()
	if e, ok := c.m[k]; ok {
		c.stamp++
		e.used = c.stamp
		c.Unlock()
		<-e.ready
		if e.hier == nil {
			// Its prefill panicked and left m; prefilling here brings the
			// panic to this caller too.
			return prefilledHierarchy(cfg, gen, prof)
		}
		return e.hier.Child(cfg)
	}
	if c.m == nil {
		c.m = make(map[prefillKey]*prefillSnapshot)
	}
	c.stamp++
	c.prefills++
	e := &prefillSnapshot{used: c.stamp, ready: make(chan struct{})}
	c.m[k] = e
	c.Unlock()
	defer close(e.ready)
	defer func() {
		if e.hier == nil {
			c.Lock()
			delete(c.m, k)
			c.Unlock()
		}
	}()

	// The snapshot gets its own copy of the config, so it does not keep
	// this machine alive.
	own := *cfg
	h := prefill(&own, gen, prof)

	c.Lock()
	defer c.Unlock()
	size := h.MetaBytes()
	for c.bytes+size > maxPrefillSnapshotBytes {
		// Evict the least recently used published snapshot. Children of
		// the evicted snapshot keep it alive until they finish.
		var oldest prefillKey
		var victim *prefillSnapshot
		for kk, o := range c.m {
			if o.hier != nil && (victim == nil || o.used < victim.used) {
				oldest, victim = kk, o
			}
		}
		if victim == nil {
			break
		}
		c.bytes -= victim.hier.MetaBytes()
		delete(c.m, oldest)
	}
	e.hier = h
	c.bytes += size
	return h.Child(cfg)
}

// prefill returns one core's caches warmed to the measurement steady state
// (DESIGN.md §3): the L3 holds the lines the stream walks touched just
// before the window — interleaved load/store-region lines in their access
// ratio, inserted oldest-first ending right behind each stream cursor —
// and, newest, the hot region, which also fills L1 and L2 as a read of
// every 64 B of it through the whole hierarchy would. Capacity writebacks
// and streaming misses then behave from instruction 0 exactly as they
// would after a multi-hundred-million-instruction cold phase. prefill
// accesses no cache: it draws the inserts' shuffle and describes them, and
// each level builds a set from that description whenever the set is read
// (cache.NewFilledHierarchy), exactly as the accesses would have left it.
func prefill(cfg *sim.Config, gen *workload.Generator, prof workload.CoreProfile) *cache.Hierarchy {
	streams, rng := streamInserts(cfg, gen, prof)
	var n uint64
	for _, st := range streams {
		n += st.N
	}
	pos := make([]int32, n)
	rng.InvPerm(pos)
	hotStart, hotSpan := gen.HotRegion()
	return cache.NewFilledHierarchy(cfg, pos, cache.Walk{Start: hotStart, N: hotSpan / cache.WalkStepB}, streams...)
}

// streamInserts describes prefill's L3 inserts: the nR load-region lines
// just behind the read cursor, then the nW store-region lines just behind
// the write cursor, as cache.Streams, in an order rng shuffles. A core
// with no streaming reads (RPKI <= 0) has none.
func streamInserts(cfg *sim.Config, gen *workload.Generator, prof workload.CoreProfile) (streams []cache.Stream, rng *sim.RNG) {
	rCur, wCur := gen.ReadCursor(), gen.WriteCursor()
	rng = sim.NewRNG(rCur*31 + wCur*17 + 0xC0FFEE)
	if prof.RPKI <= 0 {
		return nil, rng
	}
	lineB := uint64(cfg.L3LineB)
	rStart, _ := gen.StreamReadRegion()
	wStart, _ := gen.StreamWriteRegion()
	span := gen.SpanLines()
	wFrac := prof.WPKI / prof.RPKI
	// Insert twice the capacity so that, despite the shuffled order's
	// binomial spread of inserts per set, every set ends completely full
	// (an underfilled set would absorb its first few fills without
	// evicting, suppressing early writebacks). A stream longer than its
	// region (a 128 MB L3 and a fixed-footprint app) laps it.
	total := uint64(cfg.L3SizeMB*1024*1024/cfg.L3LineB) * 2
	nW := uint64(float64(total) * wFrac)
	nR := total - nW
	// The resident set is the lines just behind each stream cursor, dirty
	// for the store stream. Insertion order is shuffled so per-set LRU
	// ages are independent of the cursors' relative phase: early-eviction
	// victims are then dirty with the true steady-state probability
	// (wFrac) for every seed, instead of whatever the arbitrary phase
	// alignment would dictate.
	return []cache.Stream{
		{Base: rStart / lineB, Cur: rCur, Span: span, N: nR},
		{Base: wStart / lineB, Cur: wCur, Span: span, N: nW, Dirty: true},
	}, rng
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
// before Run. Run takes the samples between events, so probing schedules
// nothing and leaves the simulation untouched.
func (s *System) EnableProbes(interval sim.Cycle, w io.Writer) *obs.Prober {
	if interval == 0 || w == nil {
		return nil
	}
	s.prober = obs.NewProber(s.Obs.Registry(), w)
	s.probeStep = interval
	s.probeNext = s.Eng.Now() + interval
	return s.prober
}

// Run executes until every core retires its budget (or the event heap
// drains, which indicates a deadlock and panics with the controller's state
// after the first line). It returns the collected metrics. With probes
// enabled, each event that reaches an interval boundary is followed by one
// probe row per boundary reached, labelled with that boundary.
func (s *System) Run() Result {
	for _, c := range s.Cores {
		c.Start()
	}
	for s.finished < len(s.Cores) {
		if !s.Eng.Step() {
			panic(fmt.Sprintf("system: deadlock — %d/%d cores finished, no events pending\n%s",
				s.finished, len(s.Cores), s.MC.DumpState()))
		}
		for s.prober != nil && s.Eng.Now() >= s.probeNext {
			s.prober.Sample(uint64(s.probeNext))
			s.probeNext += s.probeStep
		}
	}
	return s.collect()
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
		cycles += uint64(fc)
		reads, writes := c.MemCounts()
		r.DemandReads += reads
		r.Writes += writes
	}
	r.Cycles = s.Eng.Now()
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
