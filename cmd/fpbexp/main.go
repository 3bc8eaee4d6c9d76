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

	"fpb/internal/exp"
	"fpb/internal/obs"
	"fpb/internal/serve/client"
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

	opt := exp.Options{InstrPerCore: *instr, MetricsDir: *metricsDir, Workers: *workers}
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
