package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"fpb/internal/exp"
	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// The in-process workloads run each repetition in a fresh child process of
// the benchmark binary (-child), so every repetition starts with an empty
// prefill snapshot cache and its CPU time and resident memory are its own.
// The child prints "ready" as soon as it starts, then one JSON childReport.

// inprocHits is how many results a child reads back through the
// exp.Runner memo after its batch: enough samples for a p99.
const inprocHits = 4000

// childReport is what one repetition measured and produced.
type childReport struct {
	SetupS  float64           `json:"setup_s,omitempty"` // prefill fill (sim_writes_long)
	SweepS  float64           `json:"sweep_s"`
	CPUS    float64           `json:"cpu_s"`
	Instrs  uint64            `json:"instrs"`
	HitsMs  []float64         `json:"hits_ms"`
	Digests map[string]string `json:"digests"`
	// HitFailures are readbacks that returned an error; Errors are other
	// failures (a missing point shows as absent from Digests).
	HitFailures []string `json:"hit_failures,omitempty"`
	Errors      []string `json:"errors,omitempty"`
	Table       string   `json:"table,omitempty"` // the Fig. 18 table of the batch
	Paper       string   `json:"paper,omitempty"` // its model-vs-paper line
	// Counters are the traced repetition's counts: model counters summed
	// over the batch's results, the runner's registry, runtime allocation.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// modelCounters are the Result.Metrics series the per-layer report sums
// over a batch (each result is one simulation, counted once).
var modelCounters = []string{
	"sim.events_run", "mem.reads.demand", "mem.writes.done", "mem.wc.cancels",
	"mem.wp.pauses", "core.scheduler.started", "core.scheduler.admit_failures",
	"power.grants", "power.denied.chip", "power.denied.dimm", "power.denied.gcp",
}

// sumCounters adds each result's model counters and retired instructions.
func sumCounters(dst map[string]float64, results map[string]system.Result) {
	for _, r := range results {
		for _, name := range modelCounters {
			dst[name] += r.Metrics[name]
		}
		dst["instrs"] += float64(r.Instrs)
	}
}

// childStart is the -child workload of a set-up sample: the child exits as
// soon as it has answered.
const childStart = "start"

// runChild is the -child entry point: one repetition of an in-process
// workload, reported as JSON on stdout. The batch is fpbexp's own Fig. 18
// experiment, with the benchmark's seed put into every config.
func runChild(workload string, seed uint64, profPath, spanPath string) error {
	fmt.Println("ready")
	if workload == childStart {
		return nil
	}
	var sp *spans
	if spanPath != "" {
		sp = newSpans()
	}
	var root open
	var mu sync.Mutex
	var pts []point
	results := map[string]system.Result{}
	reg := obs.NewRegistry()
	opt := batchOptions(workload)
	opt.Metrics = reg
	opt.Backend = seeded(seed, func(cfg sim.Config, wl string) (system.Result, error) {
		s := sp.start(root, "system.RunWorkload")
		defer s.end()
		return system.RunWorkload(cfg, wl)
	}, func(p point, res system.Result) {
		mu.Lock()
		defer mu.Unlock()
		pts = append(pts, p)
		results[p.key] = res
	})
	var rep childReport

	if workload == "sim_writes_long" {
		// Set-up: fill the prefill snapshot cache. Prefill does not depend
		// on the scheme or the budget, so a minimal run per app suffices.
		s := sp.start(open{}, "setup.prefill")
		t := time.Now()
		if err := prefillApps(baseConfig(seed, writesInstr), writeHeavyApps); err != nil {
			return err
		}
		rep.SetupS = time.Since(t).Seconds()
		s.end()
	}
	runner := exp.NewRunner(opt)

	var prof *os.File
	if profPath != "" {
		f, err := os.Create(profPath)
		if err != nil {
			return err
		}
		prof = f
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	alloc0 := readRuntimeMetric("/gc/heap/allocs:bytes")
	cpu0 := selfCPU()
	t0 := time.Now()
	root = sp.start(open{}, "sweep")
	table, err := runFig18(runner)
	root.end()
	rep.SweepS = time.Since(t0).Seconds()
	sweepCPU := selfCPU() - cpu0
	if err != nil {
		rep.Errors = append(rep.Errors, "fig18: "+err.Error())
	} else {
		rep.Table, rep.Paper = table.String(), paperLine(table)
	}
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
		rep.Counters = map[string]float64{
			"runtime.alloc_bytes": readRuntimeMetric("/gc/heap/allocs:bytes") - alloc0,
		}
		sumCounters(rep.Counters, results)
		sims, _ := reg.Value("exp.sims")
		rep.Counters["exp.sims"] = sims
		rep.Counters["exp.workers"] = float64(opt.Workers)
		for _, h := range reg.HistogramSnapshots() {
			if h.Name == "exp.backend_ms" {
				rep.Counters["exp.backend_ms_sum"] = h.Snapshot.Sum
			}
		}
	}

	// Read every result back through the runner's memo, as a figure
	// renderer does after its sweep, and time each read. A memo hit returns
	// the very result the batch's check covers, so only errors are kept.
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	if len(pts) > 0 {
		rep.HitsMs = make([]float64, inprocHits)
		cpu1 := selfCPU()
		hitRoot := sp.start(open{}, "readback")
		for i := range rep.HitsMs {
			p := pts[i%len(pts)]
			s := sp.start(hitRoot, "exp.Runner.Run")
			t := time.Now()
			_, err := runner.Run(p.asked, p.wl)
			rep.HitsMs[i] = float64(time.Since(t).Nanoseconds()) / 1e6
			s.end()
			if err != nil {
				rep.HitFailures = append(rep.HitFailures, fmt.Sprintf("hit %s: %v", p, err))
			}
		}
		hitRoot.end()
		sweepCPU += selfCPU() - cpu1
	}
	rep.CPUS = sweepCPU.Seconds()
	if err := sp.write(spanPath); err != nil {
		return err
	}
	rep.Digests = digestsOf(results)
	for _, r := range results {
		rep.Instrs += r.Instrs
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// prefillApps builds and briefly runs each app on up to nproc goroutines,
// which fills the prefill snapshot cache for every core of every app.
func prefillApps(cfg sim.Config, apps []string) error {
	cfg.InstrPerCore = 1000
	sem := make(chan struct{}, runtime.NumCPU())
	errs := make([]error, len(apps))
	var wg sync.WaitGroup
	for i, wl := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, errs[i] = system.RunWorkload(cfg, wl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// readRuntimeMetric reads a cumulative uint64 runtime/metrics counter.
func readRuntimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// childTimeout bounds one child repetition; a hung child is killed.
const childTimeout = 120 * time.Second

// childRep is what the parent learns from one child repetition.
type childRep struct {
	childReport
	startS float64 // process start until the child printed "ready"
	rssMB  float64
}

// runChildRep starts one child repetition and waits for its report; for
// childStart it only times the start.
func runChildRep(workload string, seed uint64, profPath, spanPath string) (childRep, error) {
	self, err := os.Executable()
	if err != nil {
		return childRep{}, err
	}
	args := []string{"-child", workload, "-seed", strconv.FormatUint(seed, 10)}
	if profPath != "" {
		args = append(args, "-cpuprofile", profPath, "-spans", spanPath)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRep{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRep{}, err
	}
	var r childRep
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var last []byte
	for n := 0; sc.Scan(); n++ {
		if n == 0 {
			r.startS = time.Since(t0).Seconds()
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRep{}, fmt.Errorf("%s child: %w", workload, err)
	}
	if scanErr != nil {
		return childRep{}, fmt.Errorf("%s child: %w", workload, scanErr)
	}
	r.rssMB = exitedRSSMB(cmd.ProcessState)
	if workload == childStart {
		return r, nil
	}
	if err := json.Unmarshal(last, &r.childReport); err != nil {
		return childRep{}, fmt.Errorf("%s child report: %w", workload, err)
	}
	return r, nil
}
