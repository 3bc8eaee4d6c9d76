// Command fpbsim runs one simulation and prints its metrics — the
// single-configuration counterpart to fpbexp.
//
// Usage:
//
//	fpbsim -workload mcf_m -scheme fpb -instr 200000
//	fpbsim -workload lbm_m -scheme dimm+chip -mapping vim -gcpeff 0.5
//	fpbsim -workload mcf_m -scheme fpb -trace out.trace -metrics out.json -probe-interval 10000
//	fpbsim -workload mcf_m -scheme fpb -remote localhost:8080
//
// With -remote the run is offloaded to a shared fpbd daemon (see cmd/fpbd
// and README "Serving"): identical requests are answered from its persistent
// result cache without re-simulating. Trace/probe flags require a local run.
//
// Schemes: ideal, dimm-only, dimm+chip, gcp, gcp+ipm, fpb (= gcp+ipm+mr),
// ipm, ipm+mr. Mappings: ne, vim, bim.
//
// Observability (see README "Observability"):
//
//	-trace FILE           Chrome trace_event JSON (open in chrome://tracing)
//	-trace-jsonl FILE     raw JSONL event stream (byte-deterministic per seed)
//	-trace-cats LIST      event categories (mem,power,core,engine); default all but engine
//	-trace-sample N       keep only every Nth trace event
//	-metrics FILE         end-of-run metrics registry dump (JSON)
//	-probe-interval N     sample every gauge each N cycles into -probe-csv
//	-probe-csv FILE       probe CSV path (default probes.csv)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
	"fpb/internal/sim"
	"fpb/internal/system"
	"fpb/internal/trace"
	"fpb/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fpbsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		wl       = flag.String("workload", "mcf_m", "workload name (ast_m..cop_m, mix_1..mix_3)")
		scheme   = flag.String("scheme", "fpb", "power budgeting scheme")
		mapName  = flag.String("mapping", "bim", "cell mapping: ne, vim, bim")
		gcpEff   = flag.Float64("gcpeff", 0.70, "GCP power efficiency (0,1]")
		instr    = flag.Uint64("instr", 200_000, "instructions per core")
		tokens   = flag.Float64("tokens", 560, "DIMM power tokens")
		lineB    = flag.Int("line", 256, "memory line size in bytes")
		wrq      = flag.Int("wrq", 24, "write queue entries")
		llc      = flag.Int("llc", 32, "per-core LLC capacity in MB")
		wc       = flag.Bool("wc", false, "enable write cancellation")
		wp       = flag.Bool("wp", false, "enable write pausing")
		wt       = flag.Bool("wt", false, "enable write truncation")
		seed     = flag.Uint64("seed", 0, "override RNG seed (0 = default)")
		traceDir = flag.String("tracedir", "", "replay per-core trace files <dir>/<workload>.coreN.trace instead of generating")
		remote   = flag.String("remote", "", "offload the run to an fpbd daemon at this address (host:port)")

		traceOut      = flag.String("trace", "", "write Chrome trace_event JSON to this file")
		traceJSONL    = flag.String("trace-jsonl", "", "write the raw JSONL event stream to this file")
		traceCats     = flag.String("trace-cats", "", "comma-separated trace categories (mem,power,core,engine); default: all but engine")
		traceSample   = flag.Uint64("trace-sample", 0, "keep only every Nth trace event (0/1 = all)")
		metricsOut    = flag.String("metrics", "", "write the end-of-run metrics registry to this JSON file")
		probeInterval = flag.Uint64("probe-interval", 0, "sample every gauge each N cycles into -probe-csv (0 = off)")
		probeOut      = flag.String("probe-csv", "probes.csv", "time-series probe CSV path (with -probe-interval)")
	)
	flag.Parse()

	s, err := sim.ParseScheme(*scheme)
	if err != nil {
		fail("%v", err)
	}
	m, err := sim.ParseMapping(*mapName)
	if err != nil {
		fail("%v", err)
	}

	cfg := sim.DefaultConfig()
	cfg.Scheme = s
	cfg.CellMapping = m
	cfg.GCPEff = *gcpEff
	cfg.InstrPerCore = *instr
	cfg.DIMMTokens = *tokens
	cfg.L3LineB = *lineB
	cfg.WriteQueueEntries = *wrq
	cfg.L3SizeMB = *llc
	cfg.WriteCancellation = *wc
	cfg.WritePausing = *wp
	cfg.WriteTruncation = *wt
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	if *remote != "" {
		if *traceDir != "" || *traceOut != "" || *traceJSONL != "" || *probeInterval > 0 {
			fail("-tracedir/-trace/-trace-jsonl/-probe-interval run locally and cannot combine with -remote")
		}
		fleet, err := client.NewFleet([]string{*remote}, client.FleetConfig{})
		if err != nil {
			fail("remote run: %v", err)
		}
		st, err := fleet.Do(context.Background(), serve.JobSpec{Workload: *wl, Config: &cfg})
		if err != nil {
			fail("remote run: %v", err)
		}
		if st.State != serve.StateDone || st.Result == nil {
			fail("remote run: job %s %s: %s", st.ID, st.State, st.Error)
		}
		res := *st.Result
		if *metricsOut != "" {
			if err := writeMetricsFile(*metricsOut, res.Metrics); err != nil {
				fail("writing metrics: %v", err)
			}
		}
		fmt.Printf("remote              %s (job %s, cached %v)\n", *remote, st.ID, st.Cached)
		printResult(os.Stdout, res, cfg, m, *gcpEff, *wc, *wp)
		return
	}

	sys, err := buildSystem(cfg, *traceDir, *wl)
	if err != nil {
		fail("%v", err)
	}

	// Observability attachments; everything stays off without its flag.
	var sinks []obs.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("%v", err)
		}
		sinks = append(sinks, obs.NewChrome(f, cfg.CPUFreqGHz*1000))
	}
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			fail("%v", err)
		}
		sinks = append(sinks, obs.NewJSONL(f))
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 {
		tracer = obs.NewTracer(sinks...)
		if *traceCats != "" {
			tracer.FilterCats(strings.Split(*traceCats, ",")...)
		}
		tracer.Sample(*traceSample)
		sys.EnableTrace(tracer)
	}
	var prober *obs.Prober
	if *probeInterval > 0 {
		f, err := os.Create(*probeOut)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		prober = sys.EnableProbes(sim.Cycle(*probeInterval), f)
	}

	res := sys.Run()
	if *traceDir != "" {
		res.Workload = *wl + " (replay)"
	} else {
		res.Workload = *wl
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fail("closing trace: %v", err)
		}
	}
	if prober != nil && prober.Err() != nil {
		fail("writing probes: %v", prober.Err())
	}
	if *metricsOut != "" {
		if err := writeMetricsFile(*metricsOut, res.Metrics); err != nil {
			fail("writing metrics: %v", err)
		}
	}

	printResult(os.Stdout, res, cfg, m, *gcpEff, *wc, *wp)
}

// printResult renders one run's metrics to w; shared by the local and
// -remote paths so offloaded runs read identically. Next to the PCM writes
// the cores made it prints how many the controller completed
// (mem.writes.done): a short run can end with most of its writes still
// queued, and its CPI and throughput then leave out their cost.
func printResult(w io.Writer, res system.Result, cfg sim.Config, m sim.Mapping, gcpEff float64, wc, wp bool) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("workload            %s\n", res.Workload)
	p("scheme              %s (%v, GCP eff %.2f)\n", res.Scheme, m, gcpEff)
	p("instructions        %d\n", res.Instrs)
	p("cycles              %d\n", res.Cycles)
	p("CPI                 %.3f\n", res.CPI)
	p("PCM reads           %d (RPKI %.3f)\n", res.DemandReads, res.MeasRPKI)
	p("PCM writes          %d (WPKI %.3f)", res.Writes, res.MeasWPKI)
	if done, ok := res.Metrics["mem.writes.done"]; ok {
		p(", %d completed, %d not completed", uint64(done), int64(res.Writes)-int64(done))
	}
	p("\n")
	p("avg cell changes    %.1f per line write\n", res.AvgCellChanges)
	p("avg read latency    %.0f cycles\n", res.AvgReadLatency)
	p("write latency       p50 %.0f / p95 %.0f / p99 %.0f cycles\n",
		res.WriteLatP50, res.WriteLatP95, res.WriteLatP99)
	p("write throughput    %.1f line writes / Mcycle\n", res.WriteThroughput)
	p("write-burst time    %.1f%%\n", res.BurstFraction*100)
	p("GCP max/avg tokens  %.1f / %.2f\n", res.MaxGCPTokens, res.AvgGCPTokens)
	p("multi-RESET admits  %d\n", res.MRAdmissions)
	p("multi-round writes  %d\n", res.MultiRound)
	p("avg write energy    %.1f pJ (%.2f nJ per 64B)\n",
		res.AvgWriteEnergyPJ, res.AvgWriteEnergyPJ/float64(cfg.L3LineB/64)/1000)
	p("wear                %d distinct lines, hottest written %d times\n",
		res.DistinctLines, res.MaxLineWrites)
	if wc || wp {
		p("WC cancels / WP pauses  %d / %d\n", res.WCCancels, res.WPPauses)
	}
}

// writeMetricsFile dumps a result's metrics snapshot (the registry's
// counters and gauges at the end of the run) in the deterministic encoding
// of stored results; local and -remote runs both write it.
func writeMetricsFile(path string, metrics map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.EncodeSeries(f, metrics)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// buildSystem assembles the machine, either from a live workload generator
// or from stored per-core trace files.
func buildSystem(cfg sim.Config, traceDir, wl string) (*system.System, error) {
	if traceDir == "" {
		w, err := workload.ByName(wl, cfg.Cores)
		if err != nil {
			return nil, err
		}
		return system.Build(cfg, w)
	}
	sources := make([]trace.Source, cfg.Cores)
	classes := make([]workload.ValueClass, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		path := filepath.Join(traceDir, fmt.Sprintf("%s.core%d.trace", wl, i))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sources[i] = r
		classes[i], _ = workload.ParseValueClass(r.Header().Value)
	}
	return system.BuildFromSources(cfg, sources, classes)
}
