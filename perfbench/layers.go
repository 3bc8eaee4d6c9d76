package main

import (
	"fmt"
	"strings"
	"time"
)

// perLayer are the traced run's metrics. Self times (_s) are CPU seconds
// charged from profile samples to the innermost program package on the
// stack; counts are what the program already emits. A layer a workload does
// not exercise reports 0, and so does a p99 over fewer than 1000 samples
// (the run prints which values were withheld).
var perLayer = []metricDef{
	{"exp.self_s", "s", "lower"},
	{"exp.sims", "count", "higher"},
	{"exp.worker_util", "fraction", "higher"},
	{"system.self_s", "s", "lower"},
	{"system.build_s", "s", "lower"},
	{"system.run_s", "s", "lower"},
	{"cache.self_s", "s", "lower"},
	{"workload.self_s", "s", "lower"},
	{"trace.self_s", "s", "lower"},
	{"cpu.self_s", "s", "lower"},
	{"cpu.instrs", "count", "higher"},
	{"sim.self_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"mem.self_s", "s", "lower"},
	{"mapping.self_s", "s", "lower"},
	{"mem.reads", "count", "lower"},
	{"mem.writes", "count", "lower"},
	{"mem.wc_cancels", "count", "lower"},
	{"mem.wp_pauses", "count", "lower"},
	{"pcm.self_s", "s", "lower"},
	{"pcm.us_per_write", "us", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.admits", "count", "lower"},
	{"core.admit_ratio", "fraction", "higher"},
	{"power.self_s", "s", "lower"},
	{"power.grants", "count", "lower"},
	{"power.grant_ratio", "fraction", "higher"},
	{"obs.self_s", "s", "lower"},
	{"stats.self_s", "s", "lower"},
	{"serve.self_s", "s", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.sim_ms_p50", "ms", "lower"},
	{"serve.store_write_ms_p50", "ms", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.cpu_ms_per_hit", "ms", "lower"},
	{"client.self_s", "s", "lower"},
	{"client.request_ms_p50", "ms", "lower"},
	{"client.request_ms_p99", "ms", "lower"},
	{"client.retries_429", "count", "lower"},
	{"client.failovers", "count", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"ring.self_s", "s", "lower"},
	{"cluster.unit_ms_p50", "ms", "lower"},
	{"cluster.unit_ms_p99", "ms", "lower"},
	{"cluster.dispatch_ms_mean", "ms", "lower"},
	{"cluster.replicas_pushed", "count", "lower"},
	{"cluster.retried", "count", "lower"},
	{"cluster.max_node_share", "fraction", "lower"},
	{"runtime.gc_s", "s", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"other.self_s", "s", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.unattributed_frac", "fraction", "lower"},
}

// layerInputs is what one traced repetition collected.
type layerInputs struct {
	stacks   []stack            // CPU samples of every process of the workload
	counters map[string]float64 // see childReport.Counters
	direct   map[string]float64 // per-layer metrics measured as such (fleet)
	sweepS   float64
	workers  float64
	spanLog  string
	notes    []string
}

// traced runs the traced repetition and derives the per-layer metrics.
func traced(w workloadRunner, untraced []rep) (map[string]float64, []string, error) {
	time.Sleep(settle)
	tr, err := w.rep(true)
	if err != nil {
		return nil, nil, err
	}
	m, notes := layerMetrics(w.layers())
	var walls []float64
	for _, r := range untraced {
		if r.placement == tr.placement {
			walls = append(walls, r.sweepS)
		}
	}
	base := median(walls)
	m["trace.overhead_frac"] = tr.sweepS/base - 1
	notes = append(notes, fmt.Sprintf("trace overhead: traced sweep %.3f s against the untraced median %.3f s of %d repetitions alike",
		tr.sweepS, base, len(walls)))
	return m, notes, nil
}

// layerMetrics turns one traced repetition into per-layer metrics.
func layerMetrics(in layerInputs) (map[string]float64, []string) {
	a := attribute(in.stacks)
	m := map[string]float64{}
	for layer, s := range a.selfS {
		m[layerMetric(layer)] += s
	}
	c := in.counters
	m["system.build_s"] = a.buildS
	m["system.run_s"] = a.runS
	m["runtime.gc_s"] = a.gcS
	m["runtime.alloc_mb"] = c["runtime.alloc_bytes"] / (1 << 20)
	if a.totalS > 0 {
		m["trace.unattributed_frac"] = a.selfS["other"] / a.totalS
	}
	m["exp.sims"] = c["exp.sims"]
	if in.workers > 0 && in.sweepS > 0 {
		m["exp.worker_util"] = c["exp.backend_ms_sum"] / 1e3 / (in.workers * in.sweepS)
	}
	m["cpu.instrs"] = c["instrs"]
	m["sim.events"] = c["sim.events_run"]
	m["sim.ns_per_event"] = ratio(m["sim.self_s"]*1e9, m["sim.events"])
	m["mem.reads"] = c["mem.reads.demand"]
	m["mem.writes"] = c["mem.writes.done"]
	m["mem.wc_cancels"] = c["mem.wc.cancels"]
	m["mem.wp_pauses"] = c["mem.wp.pauses"]
	m["pcm.us_per_write"] = ratio(m["pcm.self_s"]*1e6, m["mem.writes"])
	started, failed := c["core.scheduler.started"], c["core.scheduler.admit_failures"]
	m["core.admits"] = started
	m["core.admit_ratio"] = ratio(started, started+failed)
	grants := c["power.grants"]
	denials := c["power.denied.chip"] + c["power.denied.dimm"] + c["power.denied.gcp"]
	m["power.grants"] = grants
	m["power.grant_ratio"] = ratio(grants, grants+denials)
	for k, v := range in.direct {
		m[k] = v
	}

	notes := append([]string{fmt.Sprintf("profile: %.2f CPU s in %d distinct stacks; %.1f%% charged to a named program layer",
		a.totalS, len(in.stacks), 100*(1-m["trace.unattributed_frac"]))}, in.notes...)
	if a.runS > 0 {
		var parts []string
		for _, l := range sortedByValue(a.runSelfS) {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*a.runSelfS[l]/a.runS))
		}
		notes = append(notes, "under system.run_s: "+strings.Join(parts, ", "))
	}
	if in.spanLog != "" {
		notes = append(notes, "spans: "+in.spanLog)
	}
	return m, notes
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
