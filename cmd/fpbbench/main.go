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
// Snapshots are deterministic: benchmark names are normalized (Benchmark
// prefix and -GOMAXPROCS suffix stripped) and JSON object keys are sorted,
// so identical measurements on the same host produce byte-identical files.
// A benchmark run several times (`-count N`) is recorded as the median of
// its runs, with the ns/op minimum and maximum and the run count beside it;
// -compare compares the medians.
// Each snapshot also records the host's core count, GOMAXPROCS and Go
// version.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the on-disk format: the host that took it, and benchmark
// name → metric name → value. encoding/json sorts map keys, which makes the
// output deterministic.
type Snapshot struct {
	Host       *Host                         `json:"host,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// Host records what a snapshot's numbers depend on beyond the code: the
// core count, the Go scheduler's parallelism and the toolchain. Ingest reads
// them from its own process, which runs on the benchmarks' host right after
// them. Compare ignores them; they tell a reader whether two snapshots are
// comparable at all.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func main() {
	var (
		out       = flag.String("out", "", "write the JSON snapshot to this file (default stdout)")
		compare   = flag.Bool("compare", false, "compare two snapshot files given as arguments")
		threshold = flag.Float64("threshold", 0.20, "relative ns/op or allocs/op growth treated as a regression")
		strict    = flag.Bool("strict", false, "exit nonzero when compare finds regressions")
	)
	flag.Parse()

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
	snap.Host = &Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
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
// name. Repeated runs of the same benchmark (`-count N`) are summarized by
// summarizeRuns.
func parseBench(r io.Reader) (*Snapshot, error) {
	runs := make(map[string][]map[string]float64)
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
			name := normalizeName(fields[0])
			runs[name] = append(runs[name], metrics)
		}
	}
	snap := &Snapshot{Benchmarks: make(map[string]map[string]float64, len(runs))}
	for name, rs := range runs {
		snap.Benchmarks[name] = summarizeRuns(rs)
	}
	return snap, sc.Err()
}

// summarizeRuns reduces a benchmark's runs to the median of each metric,
// plus the ns/op range (ns_op_min, ns_op_max) and the number of runs, so a
// snapshot shows the spread behind its number rather than one sample.
func summarizeRuns(runs []map[string]float64) map[string]float64 {
	samples := make(map[string][]float64)
	for _, m := range runs {
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	out := make(map[string]float64, len(samples)+3)
	for k, vs := range samples {
		sort.Float64s(vs)
		n := len(vs)
		out[k] = (vs[(n-1)/2] + vs[n/2]) / 2
		if k == "ns_op" {
			out["ns_op_min"], out["ns_op_max"] = vs[0], vs[n-1]
		}
	}
	out["runs"] = float64(len(runs))
	return out
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
