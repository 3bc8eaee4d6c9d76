// Package exp defines one experiment per table and figure of the paper's
// evaluation (Figures 2, 4, 10–23 and Table 3). Each experiment runs the
// required simulations — memoized and in parallel across workloads and
// schemes — and renders the same rows/series the paper reports, normalized
// the same way (speedups over DIMM+chip for Section 6, over Ideal for
// Figure 4).
package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// Workloads is the evaluation order of the 13 simulated workloads.
var Workloads = []string{
	"ast_m", "bwa_m", "lbm_m", "les_m", "mcf_m", "xal_m",
	"mum_m", "tig_m", "qso_m", "cop_m", "mix_1", "mix_2", "mix_3",
}

// Backend resolves one (config, workload) simulation. The default (nil)
// backend is in-process system.RunWorkload; serve/client.Fleet.Run plugs in
// one shared fpbd daemon or a fleet of them instead, turning figure
// regeneration into mostly cache hits against their persistent stores.
type Backend func(cfg sim.Config, wl string) (system.Result, error)

// Options scales an experiment run.
type Options struct {
	// InstrPerCore is the per-core instruction budget of every
	// simulation (default 100k; benchmarks use less, full paper-style
	// runs more).
	InstrPerCore uint64
	// Workloads restricts the workload set (default: all 13).
	Workloads []string
	// MetricsDir, when non-empty, receives one metrics-registry JSON dump
	// per simulated (config, workload) pair. Filenames are deterministic:
	// <workload>_<scheme>_<first 16 hex digits of system.Key>.json.
	MetricsDir string
	// Workers bounds Prewarm's simulation parallelism (default:
	// GOMAXPROCS). With a remote Backend it bounds in-flight requests
	// instead, since the daemon runs the actual simulations.
	Workers int
	// Backend overrides how simulations run; nil means in-process.
	Backend Backend
	// Metrics, when non-nil, receives the runner's execution telemetry:
	// simulations run, backend retries/failures, and backend latency.
	// These describe how an experiment batch executed, never its figures.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.InstrPerCore == 0 {
		o.InstrPerCore = 100_000
	}
	if len(o.Workloads) == 0 {
		o.Workloads = Workloads
	}
	return o
}

// Experiment is one reproducible table/figure. Run returns an error when a
// simulation backend fails (e.g. a remote fpbd daemon becomes unreachable);
// the table is only valid when the error is nil.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes the result the paper reports for this experiment
	// (used by EXPERIMENTS.md generation).
	Paper string
	Run   func(r *Runner) (*stats.Table, error)
}

// Runner executes simulations with memoization; experiments share it so
// common baselines (e.g. DIMM+chip) run once. Memoization is
// singleflight: concurrent Run calls for the same (config, workload) pair
// share one simulation instead of duplicating it.
type Runner struct {
	opt   Options
	mu    sync.Mutex
	cache map[key]*entry
	sims  uint64 // simulations actually executed (not served from cache)

	// Telemetry (nil-safe no-ops without Options.Metrics).
	cSims      *obs.Counter
	cRetries   *obs.Counter
	cFailures  *obs.Counter
	hBackendMs *obs.Histogram
}

type key struct {
	cfg sim.Config
	wl  string
}

// entry is one memoized simulation; once makes concurrent first callers
// collapse onto a single execution. A failed execution memoizes its error
// the same way a successful one memoizes its result: the backend already
// got a retry (see Run), so hammering it with every downstream read of the
// same pair would only amplify the outage.
type entry struct {
	once sync.Once
	res  system.Result
	err  error
}

// NewRunner builds a runner for the options, creating MetricsDir if set.
func NewRunner(opt Options) *Runner {
	opt = opt.withDefaults()
	if opt.MetricsDir != "" {
		if err := os.MkdirAll(opt.MetricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "exp: metrics dir: %v\n", err)
			opt.MetricsDir = ""
		}
	}
	r := &Runner{opt: opt, cache: make(map[key]*entry)}
	if reg := opt.Metrics; reg != nil {
		r.cSims = reg.Counter("exp.sims")
		r.cRetries = reg.Counter("exp.backend.retries")
		r.cFailures = reg.Counter("exp.backend.failures")
		r.hBackendMs = reg.Histogram("exp.backend_ms", obs.LatencyBucketsMs)
		reg.SetHelp("exp.sims", "simulations executed (memoization misses)")
		reg.SetHelp("exp.backend.retries", "backend calls retried after a transient failure")
		reg.SetHelp("exp.backend.failures", "simulations that failed even after the retry")
		reg.SetHelp("exp.backend_ms", "backend call latency per fresh simulation (ms)")
	}
	return r
}

// BaseConfig is the Table 1 configuration at the runner's scale.
func (r *Runner) BaseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.InstrPerCore = r.opt.InstrPerCore
	return cfg
}

// Run simulates one (config, workload) pair, memoized. Concurrent calls
// with an identical pair block on one shared simulation; every other pair
// proceeds in parallel.
//
// A backend failure is retried once (remote daemons drop requests across
// restarts; the retry absorbs exactly that class of transient), then
// memoized and returned with the workload and scheme in the error chain so
// the caller can tell which simulation of a figure died.
func (r *Runner) Run(cfg sim.Config, wl string) (system.Result, error) {
	k := key{cfg: cfg, wl: wl}
	r.mu.Lock()
	e, ok := r.cache[k]
	if !ok {
		e = &entry{}
		r.cache[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		run := r.opt.Backend
		if run == nil {
			run = system.RunWorkload
		}
		start := time.Now()
		res, err := run(cfg, wl)
		if err != nil {
			r.cRetries.Inc()
			res, err = run(cfg, wl) // retry once
		}
		r.hBackendMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
		if err != nil {
			r.cFailures.Inc()
			e.err = fmt.Errorf("exp: running %s (scheme %v): %w", wl, cfg.Scheme, err)
			return
		}
		r.dumpMetrics(cfg, wl, res)
		r.cSims.Inc()
		r.mu.Lock()
		r.sims++
		r.mu.Unlock()
		e.res = res
	})
	return e.res, e.err
}

// Simulations reports how many simulations actually executed (cache misses);
// tests use it to prove memoization coalesces duplicate work.
func (r *Runner) Simulations() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sims
}

// dumpMetrics writes one metrics-registry snapshot per fresh simulation to
// Options.MetricsDir. The filename carries the simulation's system.Key
// prefix, so every distinct variant of a workload gets its own stable file
// across runs, named by the same content address the result stores use.
// Dump failures don't abort the experiment; they are reported once per file
// on stderr.
func (r *Runner) dumpMetrics(cfg sim.Config, wl string, res system.Result) {
	if r.opt.MetricsDir == "" || len(res.Metrics) == 0 {
		return
	}
	scheme := strings.NewReplacer("+", "-", "/", "-", " ", "-").Replace(res.Scheme)
	path := filepath.Join(r.opt.MetricsDir,
		fmt.Sprintf("%s_%s_%s.json", wl, scheme, system.Key(cfg, wl)[:16]))
	f, err := os.Create(path)
	if err == nil {
		err = obs.EncodeSeries(f, res.Metrics)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp: metrics dump %s: %v\n", path, err)
	}
}

// Prewarm runs all (config, workload) combinations in parallel, bounded by
// Options.Workers (GOMAXPROCS when unset), so subsequent Run calls hit the
// cache. It returns the first simulation error (the rest of the batch still
// completes, so every surviving pair is warm).
//
// The semaphore is acquired inside the worker goroutine: the dispatch loop
// itself never blocks on a slot, so already-cached pairs are skipped
// immediately even while slow simulations hold every slot.
func (r *Runner) Prewarm(cfgs []sim.Config, wls []string) error {
	workers := r.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for _, cfg := range cfgs {
		for _, wl := range wls {
			cfg, wl := cfg, wl
			r.mu.Lock()
			_, cached := r.cache[key{cfg: cfg, wl: wl}]
			r.mu.Unlock()
			if cached {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if _, err := r.Run(cfg, wl); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	return firstErr
}

// column is one configuration column of a table: its label, the config it
// simulates and, optionally, the norm (the config its cells are divided
// by), each given as a change to the runner's base config.
type column struct {
	label string
	cfg   func(*sim.Config)
	norm  func(*sim.Config) // nil: the column has no norm
}

// scheme is the change that selects scheme s.
func scheme(s sim.Scheme) func(*sim.Config) { return func(c *sim.Config) { c.Scheme = s } }

var (
	dimmChip = scheme(sim.SchemeDIMMChip)
	ideal    = scheme(sim.SchemeIdeal)
)

// config is the runner's base config with change applied.
func (r *Runner) config(change func(*sim.Config)) sim.Config {
	cfg := r.BaseConfig()
	change(&cfg)
	return cfg
}

// measure simulates every column's config and norm on wls and returns
// cell(normResult, result) for each column and workload, indexed
// [column][workload]; a column without a norm gets a zero normResult.
// Prewarm receives every column config in column order, then each norm
// not already listed.
func (r *Runner) measure(cols []column, wls []string, cell func(norm, res system.Result) float64) ([][]float64, error) {
	cfgs := make([]sim.Config, len(cols))
	norms := make([]*sim.Config, len(cols))
	batch := make([]sim.Config, 0, 2*len(cols))
	listed := map[sim.Config]bool{}
	list := func(c sim.Config) {
		if !listed[c] {
			listed[c] = true
			batch = append(batch, c)
		}
	}
	for i, c := range cols {
		cfgs[i] = r.config(c.cfg)
		list(cfgs[i])
	}
	for i, c := range cols {
		if c.norm != nil {
			n := r.config(c.norm)
			norms[i] = &n
			list(n)
		}
	}
	if err := r.Prewarm(batch, wls); err != nil {
		return nil, err
	}
	vals := make([][]float64, len(cols))
	for i := range cols {
		for _, wl := range wls {
			res, err := r.Run(cfgs[i], wl)
			var norm system.Result
			if err == nil && norms[i] != nil {
				norm, err = r.Run(*norms[i], wl)
			}
			if err != nil {
				return nil, err
			}
			vals[i] = append(vals[i], cell(norm, res))
		}
	}
	return vals, nil
}

// table renders vals from measure as one row per workload under the
// columns' labels, closed by an aggregate row: agg of each column, labeled
// aggLabel.
func table(title string, cols []column, wls []string, vals [][]float64,
	aggLabel string, agg func([]float64) float64) *stats.Table {
	head := []string{"workload"}
	for _, c := range cols {
		head = append(head, c.label)
	}
	t := stats.NewTable(title, head...)
	row := make([]float64, len(cols))
	for w, wl := range wls {
		for i := range cols {
			row[i] = vals[i][w]
		}
		t.AddRow(wl, row...)
	}
	for i := range cols {
		row[i] = agg(vals[i])
	}
	t.AddRow(aggLabel, row...)
	return t
}

// tabulate measures cols on the runner's workloads and renders them with
// table.
func (r *Runner) tabulate(title string, cols []column, cell func(norm, res system.Result) float64,
	aggLabel string, agg func([]float64) float64) (*stats.Table, error) {
	vals, err := r.measure(cols, r.opt.Workloads, cell)
	if err != nil {
		return nil, err
	}
	return table(title, cols, r.opt.Workloads, vals, aggLabel, agg), nil
}

// speedups is the paper's speedup figure (Eq. 7: CPI_norm / CPI_column):
// every column normalized to norm, closed by a gmean row.
func (r *Runner) speedups(title string, norm func(*sim.Config), cols ...column) (*stats.Table, error) {
	for i := range cols {
		cols[i].norm = norm
	}
	return r.tabulate(title, cols, system.Speedup, "gmean", stats.GeoMean)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// experiments lists every experiment in paper order.
var experiments = []Experiment{
	{ID: "fig2", Title: "Figure 2: cell changes per line write",
		Paper: "2-bit MLC changes fewer cells than SLC; larger lines change more cells (~100-500 cells at 256B)",
		Run:   runFig2},
	{ID: "fig4", Title: "Figure 4: performance under power restrictions",
		Paper: "vs Ideal: DIMM-only 0.67, DIMM+chip 0.49, PWL ~+2%, 1.5xlocal 0.80, 2xlocal ~DIMM-only, sche-X ~no gain",
		Run:   runFig4},
	{ID: "fig10", Title: "Figure 10: % of time in write burst (baseline)",
		Paper: "average 52.2% of execution time in write burst for the DIMM+chip baseline",
		Run:   runFig10},
	{ID: "fig11", Title: "Figure 11: GCP speedup vs power efficiency",
		Paper: "vs DIMM+chip: GCP-NE-0.95 +36.3% (=DIMM-only), GCP-NE-0.7 +23.7%, GCP-NE-0.5 +2.8%",
		Run:   runFig11},
	{ID: "fig12", Title: "Figure 12: cell mapping optimizations",
		Paper: "VIM/BIM-0.7 within 2%/1.4% of DIMM-only; VIM/BIM keep GCP effective at 0.5 efficiency",
		Run:   runFig12},
	{ID: "fig13", Title: "Figure 13: max GCP tokens requested",
		Paper: "max over workloads: NE 66, VIM 16, BIM 28 tokens",
		Run:   runFig13},
	{ID: "tab3", Title: "Table 3: charge pump area overhead",
		Paper: "2xlocal 100%; GCP-NE-0.95 12.5%, NE-0.7 16.4%, VIM-0.95 3.1%, VIM-0.7 4.1%, BIM-0.95 5.4%, BIM-0.7 7.1%",
		Run:   runTable3},
	{ID: "fig14", Title: "Figure 14: average GCP tokens per write",
		Paper: "VIM and BIM reduce GCP energy waste by 78.5% and 64.4% vs NE at 0.7 efficiency",
		Run:   runFig14},
	{ID: "fig15", Title: "Figure 15: BIM speedup as GCP efficiency decreases",
		Paper: "BIM stays effective down to ~0.2 efficiency on mix_1; speedup decays smoothly",
		Run:   runFig15},
	{ID: "fig16", Title: "Figure 16: IPM and Multi-RESET speedup",
		Paper: "vs DIMM+chip: IPM+MR +75.6% (within 12.2% of Ideal); IPM +26.9% over GCP-BIM; stable at E=0.5, drops at 0.3",
		Run:   runFig16},
	{ID: "fig17", Title: "Figure 17: Multi-RESET iteration split limit",
		Paper: "best split is 3; 4 is ~2% worse due to added RESET latency",
		Run:   runFig17},
	{ID: "fig18", Title: "Figure 18: write throughput improvement",
		Paper: "vs DIMM+chip: GCP 1.59x, GCP+IPM+MR 3.4x, Ideal 22% above FPB",
		Run:   runFig18},
	{ID: "fig19", Title: "Figure 19: line size sensitivity",
		Paper: "FPB gains +41.3%/+61.8%/+75.6% for 64B/128B/256B lines",
		Run:   runFig19},
	{ID: "fig20", Title: "Figure 20: LLC capacity sensitivity",
		Paper: "FPB gains +39.9%/+62.1%/+75.6%/+23.4% for 8/16/32/128 MB per-core LLC",
		Run:   runFig20},
	{ID: "fig21", Title: "Figure 21: write queue size sensitivity",
		Paper: "FPB gains +75.6%/+85.2%/+88.1% for 24/48/96-entry write queues; saturates at 48",
		Run:   runFig21},
	{ID: "fig22", Title: "Figure 22: power token budget sensitivity",
		Paper: "FPB's advantage grows as the token budget tightens (466 > 532 > 598 relative gains)",
		Run:   runFig22},
	{ID: "fig23", Title: "Figure 23: FPB with WC, WP and WT",
		Paper: "FPB+WC+WP+WT +175.8% over DIMM+chip (+57% over FPB alone)",
		Run:   runFig23},
	{ID: "abl-gcpsize", Title: "Ablation: GCP output sizing",
		Paper: "(extension) paper default sizes the GCP as one LCP; half/double explore the area-performance trade",
		Run:   runAblGCPSize},
	{ID: "abl-mrtrigger", Title: "Ablation: Multi-RESET trigger policy",
		Paper: "(extension) paper uses greedy split-on-shortfall; always-split pays the latency unconditionally",
		Run:   runAblMRTrigger},
	{ID: "abl-setratio", Title: "Ablation: SET/RESET power ratio",
		Paper: "(extension) IPM reclaims (C-1)/C of RESET tokens; a lower SET/RESET ratio means more reclamation",
		Run:   runAblSetRatio},
	{ID: "abl-halfstripe", Title: "Ablation: half-stripe two-round cell layout",
		Paper: "(Section 2.1) the paper predicts doubled read/write latency harms performance; full stripe is the baseline",
		Run:   runAblHalfStripe},
}

// All returns every experiment in paper order.
func All() []Experiment { return slices.Clone(experiments) }

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
