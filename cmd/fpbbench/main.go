// Command fpbbench turns `go test -bench` output into a deterministic JSON
// snapshot and compares two snapshots for performance regressions. It is
// the plumbing behind scripts/bench.sh and the CI perf-smoke job.
//
// Ingest mode (default) reads benchmark output from stdin:
//
//	go test -run '^$' -bench . -benchmem ./... | fpbbench -out BENCH_abc123.json
//
// Compare mode diffs two snapshots:
//
//	fpbbench -compare BENCH_old.json BENCH_new.json -threshold 0.20
//
// Compare prints one line per benchmark present in both snapshots and
// warns on ns/op or allocs/op growth beyond the threshold. It exits
// nonzero for regressions only with -strict, so CI can surface warnings
// without failing the build.
//
// Warm-start mode measures the checkpoint warm-start payoff for sweeps:
//
//	fpbbench -warm 200000 [-instr 20000] [-workloads mcf_m,mix_1]
//
// It runs the Figure 18 experiment with the given warmup-cycle count twice —
// cold, then against a fresh checkpoint store — verifies both produce
// identical tables, and prints benchmark-formatted lines with the wall times
// and the cold/warm speedup.
//
// Snapshots are deterministic: benchmark names are normalized (Benchmark
// prefix and -GOMAXPROCS suffix stripped) and JSON object keys are sorted,
// so identical measurements produce byte-identical files.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"fpb/internal/exp"
)

// Snapshot is the on-disk format: benchmark name → metric name → value.
// encoding/json sorts map keys, which makes the output deterministic.
type Snapshot struct {
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	var (
		out       = flag.String("out", "", "write the JSON snapshot to this file (default stdout)")
		compare   = flag.Bool("compare", false, "compare two snapshot files given as arguments")
		threshold = flag.Float64("threshold", 0.20, "relative ns/op or allocs/op growth treated as a regression")
		strict    = flag.Bool("strict", false, "exit nonzero when compare finds regressions")
		instr     = flag.Uint64("instr", 20_000, "instructions per core for -warm runs")
		workloads = flag.String("workloads", "", "comma-separated workload subset for -warm runs (default: all 13)")
		warm      = flag.Uint64("warm", 0, "warmup cycles: run the Fig. 18 sweep cold vs checkpoint-warm-started and report the wall-clock ratio")
	)
	flag.Parse()

	if *warm > 0 {
		if err := runWarm(os.Stdout, *warm, *instr, *workloads); err != nil {
			fmt.Fprintln(os.Stderr, "fpbbench:", err)
			os.Exit(1)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: fpbbench -compare OLD.json NEW.json")
			os.Exit(2)
		}
		regressions, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbbench:", err)
			os.Exit(2)
		}
		if regressions > 0 && *strict {
			os.Exit(1)
		}
		return
	}

	snap, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpbbench:", err)
		os.Exit(2)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "fpbbench: no benchmark lines found on stdin")
		os.Exit(2)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpbbench:", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fpbbench:", err)
		os.Exit(2)
	}
}

// runWarm measures the shared-prefix warm-start speedup: the Figure 18
// experiment — 5 scheme configs per workload, all sharing one warmup prefix —
// run once cold (every simulation re-simulates its warmup) and once against a
// fresh checkpoint store (the warmup simulates once per workload; the other
// simulations restore it). Both runs must produce identical tables; any
// divergence is a determinism bug and exits nonzero. Lines are
// benchmark-formatted for ingest mode.
func runWarm(w io.Writer, cycles, instr uint64, workloads string) error {
	e, ok := exp.ByID("fig18")
	if !ok {
		return fmt.Errorf("fig18 experiment not registered")
	}
	opt := exp.Options{InstrPerCore: instr, Workers: 1, WarmupCycles: cycles}
	if workloads != "" {
		opt.Workloads = strings.Split(workloads, ",")
	}
	// Untimed warm-up: workload tables and allocator arenas are one-time
	// costs that would otherwise land on the cold run and inflate the ratio.
	if _, err := e.Run(exp.NewRunner(opt)); err != nil {
		return err
	}

	start := time.Now()
	coldTb, err := e.Run(exp.NewRunner(opt))
	if err != nil {
		return err
	}
	coldDur := time.Since(start)

	dir, err := os.MkdirTemp("", "fpbbench-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warmOpt := opt
	warmOpt.CheckpointDir = dir
	warmRunner := exp.NewRunner(warmOpt)
	start = time.Now()
	warmTb, err := e.Run(warmRunner)
	if err != nil {
		return err
	}
	warmDur := time.Since(start)
	if coldTb.String() != warmTb.String() {
		return fmt.Errorf("warm-started results diverged from the cold run — determinism bug")
	}

	fmt.Fprintf(w, "BenchmarkWarmStartFig18/mode=cold/warmup=%d \t1\t%d ns/op\n",
		cycles, coldDur.Nanoseconds())
	fmt.Fprintf(w, "BenchmarkWarmStartFig18/mode=warm/warmup=%d \t1\t%d ns/op\t%.3f speedup\t%d warm_starts\n",
		cycles, warmDur.Nanoseconds(), float64(coldDur)/float64(warmDur), warmRunner.WarmStarts())
	return nil
}

// metricKey normalizes a `go test -bench` unit to a JSON-friendly key.
func metricKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_op"
	case "B/op":
		return "b_op"
	case "allocs/op":
		return "allocs_op"
	case "MB/s":
		return "mb_s"
	}
	return unit
}

// normalizeName strips the Benchmark prefix and the -GOMAXPROCS suffix so
// snapshots taken on machines with different core counts stay comparable.
func normalizeName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// parseBench extracts benchmark result lines of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op
//
// Custom per-benchmark metrics (`-ReportMetric`) are kept under their unit
// name. Repeated runs of the same benchmark keep the last measurement.
func parseBench(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Benchmarks: make(map[string]map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count: header or unrelated line
		}
		metrics := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[metricKey(fields[i+1])] = v
		}
		if len(metrics) > 0 {
			snap.Benchmarks[normalizeName(fields[0])] = metrics
		}
	}
	return snap, sc.Err()
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// compareFiles prints a per-benchmark delta report and returns how many
// benchmarks regressed beyond the threshold on ns/op or allocs/op.
func compareFiles(w io.Writer, oldPath, newPath string, threshold float64) (int, error) {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return 0, err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(newSnap.Benchmarks))
	for name := range newSnap.Benchmarks {
		if _, ok := oldSnap.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "fpbbench: no common benchmarks to compare")
		return 0, nil
	}
	regressions := 0
	for _, name := range names {
		o, n := oldSnap.Benchmarks[name], newSnap.Benchmarks[name]
		line := fmt.Sprintf("%-40s", name)
		worst := ""
		for _, key := range []string{"ns_op", "allocs_op"} {
			ov, okO := o[key]
			nv, okN := n[key]
			if !okO || !okN || ov == 0 {
				continue
			}
			delta := nv/ov - 1
			line += fmt.Sprintf("  %s %+7.1f%%", key, delta*100)
			if delta > threshold {
				worst = key
			}
		}
		if worst != "" {
			regressions++
			line += fmt.Sprintf("  REGRESSION(%s > %+.0f%%)", worst, threshold*100)
		}
		fmt.Fprintln(w, line)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "fpbbench: %d benchmark(s) regressed beyond %.0f%%\n", regressions, threshold*100)
	} else {
		fmt.Fprintf(w, "fpbbench: no regressions beyond %.0f%% across %d benchmark(s)\n", threshold*100, len(names))
	}
	return regressions, nil
}
