// Command fpbtop is a terminal dashboard for running fpbd daemons: it
// scrapes the Prometheus text at GET /metrics on an interval and renders queue
// depth, worker utilization, cache hit ratio, job throughput and lifecycle
// latency percentiles, refreshing in place like top(1).
//
// Usage:
//
//	fpbtop -addr localhost:8080            # refresh every 2s until ^C
//	fpbtop -addr localhost:8080 -n 1       # one snapshot (scripts, smoke tests)
//	fpbtop -addr host1:8080,host2:8080     # a fleet: one row per node
//	fpbtop -interval 500ms -no-clear       # append snapshots instead of redrawing
//
// One layout serves any number of addresses: a row per node (queue,
// workers, cache ratio, jobs, sweep counters, keyspace share), totals over
// the reachable nodes, and latency percentiles from their summed histogram
// buckets. An unreachable node shows as DOWN and, in finite -n mode, makes
// fpbtop exit non-zero so scripted health checks fail loudly. fpbtop only
// needs the Prometheus text endpoint, so it works against anything that
// serves the exposition.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"fpb/internal/obs"
	"fpb/internal/serve/client"
)

func scrape(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	samples, bad := obs.ParsePrometheus(string(body))
	if len(samples) == 0 {
		return nil, fmt.Errorf("no samples in exposition (%d unparseable lines)", len(bad))
	}
	return samples, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// render prints one snapshot for any number of nodes: a row per node (DOWN
// with the scrape error when unreachable), the totals over the reachable
// nodes, and the lifecycle latency percentiles from their summed histogram
// buckets. It returns the totals; prev is the previous snapshot's, from
// which the job rate is computed.
func render(w io.Writer, addrs []string, samples []map[string]float64, errs []error,
	prev map[string]float64, interval time.Duration) map[string]float64 {
	fmt.Fprintf(w, "fpbd — %d node(s) — %s\n\n", len(addrs), time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "  %-26s %9s %9s %7s %8s %6s %7s %6s\n",
		"node", "queue", "workers", "cache%", "done", "fail", "sweeps", "own%")
	total := map[string]float64{}
	down := 0
	for i, a := range addrs {
		if errs[i] != nil {
			fmt.Fprintf(w, "  %-26s DOWN (%v)\n", a, errs[i])
			down++
			continue
		}
		s := samples[i]
		for k, v := range s {
			total[k] += v
		}
		hits, misses := s["serve_cache_hits"], s["serve_cache_misses"]
		fmt.Fprintf(w, "  %-26s %5.0f/%-3.0f %5.0f/%-3.0f %6.1f%% %8.0f %6.0f %7.0f %5.1f%%\n",
			a,
			s["serve_queue_depth"], s["serve_queue_capacity"],
			s["serve_workers_busy"], s["serve_workers_total"],
			100*ratio(hits, hits+misses), s["serve_jobs_done"], s["serve_jobs_failed"],
			s["cluster_sweeps_running"], 100*s["cluster_ring_owned_share"])
	}

	rate := ""
	if prev != nil && interval > 0 {
		rate = fmt.Sprintf(" (%.1f/s)", (total["serve_jobs_done"]-prev["serve_jobs_done"])/interval.Seconds())
	}
	fmt.Fprintf(w, "\n  fleet    %.0f done%s, %.0f failed, %.0f coalesced, %.0f rejected, %.0f stored, %.0f sweeps running, %d/%d nodes down\n",
		total["serve_jobs_done"], rate, total["serve_jobs_failed"], total["serve_jobs_coalesced"],
		total["serve_jobs_rejected"], total["serve_store_entries"], total["cluster_sweeps_running"],
		down, len(addrs))

	fmt.Fprintf(w, "\n  %-22s %8s %8s %8s %8s\n", "latency (ms)", "p50", "p95", "p99", "count")
	for _, h := range []struct{ label, name string }{
		{"queue wait", "serve_job_queue_wait_ms"},
		{"simulation", "serve_job_sim_ms"},
		{"store write", "serve_job_store_write_ms"},
	} {
		count := total[h.name+"_count"]
		p50, ok := obs.HistogramQuantile(total, h.name, 0.50)
		if !ok {
			fmt.Fprintf(w, "  %-22s %8s %8s %8s %8.0f\n", h.label, "-", "-", "-", count)
			continue
		}
		p95, _ := obs.HistogramQuantile(total, h.name, 0.95)
		p99, _ := obs.HistogramQuantile(total, h.name, 0.99)
		fmt.Fprintf(w, "  %-22s %8.3g %8.3g %8.3g %8.0f\n", h.label, p50, p95, p99, count)
	}
	return total
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "fpbd address(es), comma-separated (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		count    = flag.Int("n", 0, "number of snapshots (0 = until interrupted)")
		noClear  = flag.Bool("no-clear", false, "append snapshots instead of redrawing the screen")
	)
	flag.Parse()

	addrs := strings.Split(*addr, ",")
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = client.Normalize(a) + "/metrics"
	}
	hc := &http.Client{Timeout: 10 * time.Second}

	hadErr := false
	var prev map[string]float64
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		samples := make([]map[string]float64, len(urls))
		errs := make([]error, len(urls))
		for j, u := range urls {
			samples[j], errs[j] = scrape(hc, u)
			hadErr = hadErr || errs[j] != nil
		}
		if !*noClear && i > 0 {
			fmt.Print("\033[H\033[2J") // cursor home + clear screen
		}
		prev = render(os.Stdout, addrs, samples, errs, prev, *interval)
		fmt.Println()
	}
	// Finite-snapshot mode (e.g. -n 1 in smoke scripts) fails loudly when
	// any node was unreachable.
	if hadErr && *count > 0 {
		os.Exit(1)
	}
}
