// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every result the program returns, and prints the
// workload's end-to-end metrics (or, with -trace 1, its per-layer metrics)
// as the last line of standard output:
//
//	perfbench -workload fig18_cold -seed 7 -seconds 20 -trace 0
//
// Workloads:
//
//	fig18_cold       the 65 simulations of fpbexp -exp fig18 in one
//	                 exp.Runner.Prewarm, a fresh process per repetition
//	sim_writes_long  the five Fig. 18 configs on the four write-heaviest
//	                 apps at 200k instructions per core, one at a time,
//	                 after the prefill snapshot cache is filled
//	fleet_fig18      the same 65 points as two sweeps through a fresh
//	                 three-node fpbd fleet, then a closed-loop readback
//
// Every simulation is seeded by -seed (default: sim.DefaultConfig().Seed,
// for which outputs are pinned by testdata/golden.json). run.sh builds the
// benchmark and fpbd from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fpb/internal/sim"
)

// metricDef is one reported metric: its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the program sees; every workload
// reports each of them (see README.md for their per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sweep_s", "s", "lower"},
	{"minstr_per_s", "Minstr/s", "higher"},
	{"hit_p50_ms", "ms", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// printedOnly are end-to-end metrics the report prints but the final line
// leaves out: the hit p99 moves several-fold between quiet and noisy
// periods of a shared host (see README.md), and failed_frac is carried by
// the line's attempted and failed counts.
var printedOnly = []metricDef{{"hit_p99_ms", "ms", "lower"}}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // scratch space for stores, logs, profiles and spans
}

// rep is one measured repetition, whatever the workload.
type rep struct {
	placement                   int // fleet ring placement; 0 in process
	setupS, sweepS, cpuS, rssMB float64
	instrs                      uint64
	hitsMs                      []float64
}

func main() {
	var (
		workload = flag.String("workload", "", "fig18_cold, sim_writes_long or fleet_fig18")
		seed     = flag.Uint64("seed", sim.DefaultConfig().Seed, "seed of every simulated config")
		seconds  = flag.Float64("seconds", 20, "how long to keep starting repetitions")
		trace    = flag.Int("trace", 0, "1: one extra traced repetition, report per-layer metrics")
		out      = flag.String("out", ".bench_build/out", "directory for stores, logs, profiles and spans")
		fpbd     = flag.String("fpbd", ".bench_build/bin/fpbd", "fpbd binary for fleet_fig18")
		update   = flag.Bool("update-golden", false, "recompute testdata/golden.json for the default seed and exit")

		child    = flag.String("child", "", "internal: run one in-process repetition of this workload")
		profPath = flag.String("cpuprofile", "", "internal: child CPU profile path")
		spanPath = flag.String("spans", "", "internal: child span log path")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*child, *seed, *profPath, *spanPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if *update {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	res, err := run(o, *fpbd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and assembles the final line.
func run(o opts, fpbd string) (result, error) {
	switch o.workload {
	case "fig18_cold", "sim_writes_long", "fleet_fig18":
	default:
		return result{}, fmt.Errorf("unknown -workload %q (fig18_cold, sim_writes_long, fleet_fig18)", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	fmt.Println(hostLine())
	want, err := goldenFor(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	var pinned map[string]string
	if want != nil {
		pinned = want.Digests
	}
	ck := newChecker(pinned)

	// The untraced repetitions give the end-to-end metrics; with -trace 1
	// they run for half the time and give the baseline of the tracing
	// overhead, and one traced repetition follows.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	var w workloadRunner
	switch o.workload {
	case "fleet_fig18":
		fw, err := newFleetWorkload(o, fpbd, ck, want != nil)
		if err != nil {
			return result{}, err
		}
		w = fw
	default:
		w = &inprocWorkload{o: o, ck: ck, golden: want}
	}
	fmt.Printf("workload %s: seed=%d sizing: %s\n", o.workload, o.seed, w.sizing())
	var reps []rep
	start := time.Now()
	for len(reps) < 2 || time.Since(start) < budget {
		time.Sleep(settle)
		r, err := w.rep(false)
		if err != nil {
			ck.fail(err.Error())
			break
		}
		reps = append(reps, r)
	}
	res := result{Metrics: map[string]metric{}}
	if o.trace {
		lm, notes, err := traced(w, reps)
		if err != nil {
			ck.fail("traced repetition: " + err.Error())
		}
		for _, n := range notes {
			fmt.Println(n)
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: lm[d.name], Unit: d.unit}
			fmt.Printf("layer %-28s %14.6g %s\n", d.name, lm[d.name], d.unit)
		}
	} else {
		e2e, notes := endToEndOf(reps)
		for _, n := range notes {
			fmt.Println(n)
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
			fmt.Printf("metric %-13s %14.6g %-9s (%s is better; median over %d repetitions)\n",
				d.name, e2e[d.name], d.unit, d.better, len(reps))
		}
		for _, d := range printedOnly {
			fmt.Printf("metric %-13s %14.6g %-9s (%s is better; median over %d repetitions; not in the final line)\n",
				d.name, e2e[d.name], d.unit, d.better, len(reps))
		}
	}
	for _, l := range w.summary() {
		fmt.Println(l)
	}
	res.Attempted, res.Failed = ck.attempted, ck.failed
	if res.Attempted == 0 {
		ck.fail("no operation was attempted")
		res.Attempted, res.Failed = ck.attempted, ck.failed
	}
	frac := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("metric %-13s %14.6g %-9s (lower is better; %d failed of %d attempted; not in the final line)\n",
		"failed_frac", frac, "fraction", res.Failed, res.Attempted)
	for _, e := range ck.errs {
		fmt.Println("FAILED:", e)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// settle is the pause before each repetition, so that the teardown of the
// previous one (process exit, freed memory) does not overlap its set-up.
const settle = 250 * time.Millisecond

// workloadRunner is one workload's repetition loop.
type workloadRunner interface {
	// rep runs one repetition; traced ones also collect per-layer data.
	rep(traced bool) (rep, error)
	// layers returns the per-layer inputs of the last traced repetition.
	layers() layerInputs
	sizing() string
	summary() []string
}

// endToEndOf reduces repetitions to the end-to-end metrics: medians over
// repetitions, and hit latency percentiles over every hit of the run.
func endToEndOf(reps []rep) (map[string]float64, []string) {
	per := func(f func(rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	setup := per(func(r rep) float64 { return r.setupS })
	sweep := per(func(r rep) float64 { return r.sweepS })
	cpu := per(func(r rep) float64 { return r.cpuS })
	m := map[string]float64{
		"setup_s":     median(setup),
		"sweep_s":     median(sweep),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(per(func(r rep) float64 { return r.rssMB })),
		"minstr_per_s": median(per(func(r rep) float64 {
			return float64(r.instrs) / 1e6 / r.sweepS
		})),
	}
	notes := []string{fmt.Sprintf("per repetition: setup_s %.4g, sweep_s %.4g, cpu_s %.4g", setup, sweep, cpu)}
	// Hit latency percentiles are taken per repetition, each over all of
	// its hits, and reduced like every other metric.
	n := 0
	for _, q := range []struct {
		name string
		q    float64
	}{{"hit_p50_ms", 0.50}, {"hit_p99_ms", 0.99}} {
		var per []float64
		for _, r := range reps {
			if v, ok := percentile(r.hitsMs, q.q); ok {
				per = append(per, v)
			} else {
				notes = append(notes, fmt.Sprintf("%s withheld for a repetition with %d hits < %d", q.name, len(r.hitsMs), minSamples(q.q)))
			}
		}
		m[q.name] = median(per)
		notes = append(notes, fmt.Sprintf("%s per repetition: %.4g", q.name, per))
	}
	for _, r := range reps {
		n += len(r.hitsMs)
	}
	notes = append(notes, fmt.Sprintf("hits: %d samples over %d repetitions", n, len(reps)))
	return m, notes
}

// setupSamples is how often a repetition sets up: fig18_cold starts that
// many child processes (all but one exit as soon as they answer), and
// fleet_fig18 starts that many fleets (all but the last are killed again).
// The repetition's setup_s is the median.
const setupSamples = 7

// inprocWorkload drives fig18_cold and sim_writes_long.
type inprocWorkload struct {
	o      opts
	ck     *checker
	golden *goldenSet
	pts    []point
	table  string
	paper  string
	last   layerInputs
}

func (w *inprocWorkload) sizing() string {
	if w.o.workload == "sim_writes_long" {
		return fmt.Sprintf("1 child process per repetition; prefill on %d goroutines, then fpbexp fig18 on 4 apps with Workers=1; readback %d hits on 1 goroutine",
			runtime.NumCPU(), inprocHits)
	}
	return fmt.Sprintf("%d child processes per repetition, 1 of them runs fpbexp fig18 with Workers=%d; readback %d hits on 1 goroutine",
		setupSamples, runtime.NumCPU(), inprocHits)
}

func (w *inprocWorkload) rep(traced bool) (rep, error) {
	var prof, spanLog string
	if traced {
		prof = filepath.Join(w.o.outDir, w.o.workload+".cpu.pprof")
		spanLog = filepath.Join(w.o.outDir, w.o.workload+".spans.jsonl")
	}
	var starts []float64
	if w.o.workload == "fig18_cold" {
		for len(starts) < setupSamples-1 {
			c, err := runChildRep(childStart, w.o.seed, "", "")
			if err != nil {
				return rep{}, err
			}
			starts = append(starts, c.startS)
		}
	}
	c, err := runChildRep(w.o.workload, w.o.seed, prof, spanLog)
	if err != nil {
		return rep{}, err
	}
	if w.pts == nil {
		w.pts = workloadPoints(w.o.workload, w.o.seed)
	}
	w.ck.checkBatch(w.o.workload, w.pts, c.Digests)
	for _, e := range append(c.Errors, c.HitFailures...) {
		w.ck.fail(e)
	}
	switch {
	case w.table == "":
		w.table, w.paper = c.Table, c.Paper
		if w.golden != nil && c.Table != w.golden.Table {
			w.ck.fail(w.o.workload + ": Fig. 18 table differs from the pinned one")
		}
	case c.Table != w.table:
		w.ck.fail(w.o.workload + ": Fig. 18 table differs between repetitions")
	}
	r := rep{setupS: c.SetupS, sweepS: c.SweepS, cpuS: c.CPUS, rssMB: c.rssMB,
		instrs: c.Instrs, hitsMs: c.HitsMs}
	if w.o.workload == "fig18_cold" {
		r.setupS = median(append(starts, c.startS))
	}
	if traced {
		stacks, err := readProfile(prof)
		if err != nil {
			return rep{}, err
		}
		w.last = layerInputs{stacks: stacks, counters: c.Counters, sweepS: c.SweepS,
			workers: c.Counters["exp.workers"], spanLog: spanLog}
	}
	return r, nil
}

func (w *inprocWorkload) layers() layerInputs { return w.last }

func (w *inprocWorkload) summary() []string {
	if w.table == "" {
		return nil
	}
	out := strings.Split(strings.TrimRight(w.table, "\n"), "\n")
	if w.o.workload == "fig18_cold" {
		out = append(out, w.paper)
	}
	return out
}

func readProfile(path string) ([]stack, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseProfile(b)
}

// updateGolden recomputes the pinned outputs of the default seed.
func updateGolden() error {
	seed := sim.DefaultConfig().Seed
	g := golden{Seed: seed}
	for _, wl := range []string{"fig18_cold", "sim_writes_long"} {
		c, err := runChildRep(wl, seed, "", "")
		if err != nil {
			return err
		}
		if len(c.Errors) > 0 {
			return fmt.Errorf("%s: %s", wl, strings.Join(c.Errors, "; "))
		}
		set := goldenSet{InstrPerCore: workloadPoints(wl, seed)[0].cfg.InstrPerCore,
			Digests: c.Digests, Table: c.Table}
		if wl == "fig18_cold" {
			g.Fig18 = set
		} else {
			g.Writes = set
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "testdata", "golden.json"), append(b, '\n'), 0o644)
}

// sortedByValue lists m's keys, largest value first.
func sortedByValue(m map[string]float64) []string {
	ks := sortedKeys(m)
	sort.SliceStable(ks, func(i, j int) bool { return m[ks[i]] > m[ks[j]] })
	return ks
}
