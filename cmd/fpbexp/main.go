// Command fpbexp regenerates the paper's tables and figures.
//
// Usage:
//
//	fpbexp -list
//	fpbexp -exp fig16 [-instr 100000] [-workloads mcf_m,lbm_m]
//	fpbexp -all [-out results.md]
//
// Each experiment prints the same rows/series the corresponding figure or
// table of the paper reports (speedups over the same normalization
// baseline). -instr scales simulation length; larger values reduce noise.
// -workers bounds simulation parallelism; -remote offloads every simulation
// to a shared fpbd daemon, so repeated figure regenerations become cache
// hits against its persistent result store (see cmd/fpbd).
//
// -warmup N prepends a shared warmup phase to every simulation (optionally
// under -warmup-scheme), and -checkpoint-dir makes grid points sharing a
// warmup prefix simulate it once and warm-start from the stored barrier
// image — byte-identically (DESIGN.md §12).
//
// Profiling and observability: -pprof serves net/http/pprof, -cpuprofile /
// -memprofile write whole-run profiles, and -metricsdir dumps one metrics
// registry JSON per simulated (config, workload) pair.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fpb/internal/ckpt"
	"fpb/internal/exp"
	"fpb/internal/obs"
	"fpb/internal/serve/client"
	"fpb/internal/sim"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		expID     = flag.String("exp", "", "experiment id to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment in paper order")
		instr     = flag.Uint64("instr", 100_000, "instructions per core per simulation")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: all 13)")
		out       = flag.String("out", "", "also append results to this file")
		bars      = flag.Bool("bars", false, "also render each result column as an ASCII bar chart")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS); with -remote, in-flight requests")
		remote    = flag.String("remote", "", "offload simulations to fpbd daemon(s) at these comma-separated addresses; several addresses form a failover fleet")

		warmup       = flag.Uint64("warmup", 0, "run N warmup cycles before measurement in every simulation (0 = off)")
		warmupScheme = flag.String("warmup-scheme", "", "scheme the shared warmup phase runs under (requires -warmup)")
		ckptDir      = flag.String("checkpoint-dir", "", "warm-start simulations sharing a warmup prefix from checkpoints in this directory (requires -warmup)")

		runStats   = flag.Bool("runstats", false, "dump run telemetry (sims, retries, backend latency) to stderr at exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
		metricsDir = flag.String("metricsdir", "", "dump one metrics-registry JSON per simulation into this directory")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fpbexp: pprof:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbexp:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fpbexp:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpbexp:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fpbexp:", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	if *warmupScheme != "" && *warmup == 0 {
		fmt.Fprintln(os.Stderr, "fpbexp: -warmup-scheme is only meaningful with -warmup N (N > 0 warmup cycles)")
		os.Exit(1)
	}
	if *ckptDir != "" && *warmup == 0 {
		fmt.Fprintln(os.Stderr, "fpbexp: -checkpoint-dir is only meaningful with -warmup N (N > 0 warmup cycles): checkpoints capture the warmup prefix")
		os.Exit(1)
	}
	if *ckptDir != "" && *remote != "" {
		fmt.Fprintln(os.Stderr, "fpbexp: -checkpoint-dir is a local store; for remote runs configure each daemon's store with fpbd -ckpt-store")
		os.Exit(1)
	}
	if *ckptDir != "" {
		// Fail fast on an unusable store path: exp.NewRunner would only
		// warn and silently run everything cold.
		if _, err := ckpt.NewStore(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "fpbexp: -checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
	}
	opt := exp.Options{
		InstrPerCore: *instr, MetricsDir: *metricsDir, Workers: *workers,
		WarmupCycles: *warmup, CheckpointDir: *ckptDir,
	}
	if *warmupScheme != "" {
		ws, err := sim.ParseScheme(*warmupScheme)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbexp: -warmup-scheme:", err)
			os.Exit(1)
		}
		opt.WarmupScheme = ws
	}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	// One registry holds both the runner's and (with -remote) the client's
	// telemetry; -runstats dumps it in the Prometheus text format, which
	// unlike the JSON view includes the latency histograms.
	reg := obs.NewRegistry()
	opt.Metrics = reg
	if *remote != "" {
		// Route each job to its ring owner and fail over to replicas — the
		// experiment neither knows nor cares how many nodes executed it.
		fleet, err := client.NewFleet(strings.Split(*remote, ","), client.FleetConfig{
			ProbeInterval: 5 * time.Second,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbexp:", err)
			os.Exit(1)
		}
		defer fleet.Close()
		fleet.Instrument(reg)
		opt.Backend = fleet.Run
	}
	if *runStats {
		defer func() {
			if err := reg.WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "fpbexp: runstats:", err)
			}
		}()
	}
	runner := exp.NewRunner(opt)

	var sinks []io.Writer = []io.Writer{os.Stdout}
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbexp:", err)
			os.Exit(1)
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)

	var toRun []exp.Experiment
	switch {
	case *all:
		toRun = exp.All()
	case *expID != "":
		e, ok := exp.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "fpbexp: unknown experiment %q (see -list)\n", *expID)
			os.Exit(1)
		}
		toRun = []exp.Experiment{e}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, e := range toRun {
		start := time.Now()
		table, err := e.Run(runner)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpbexp: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "## %s\n\n", e.Title)
		fmt.Fprintf(w, "Paper: %s\n\n", e.Paper)
		fmt.Fprintln(w, table.String())
		if *bars {
			for col := 1; col < len(table.Columns); col++ {
				if chart := table.BarChart(col, 40); chart != "" {
					fmt.Fprintln(w, chart)
				}
			}
		}
		fmt.Fprintf(w, "(%s, %d instr/core)\n\n", time.Since(start).Round(time.Millisecond), *instr)
	}
}
