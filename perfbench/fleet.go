package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fpb/internal/cluster"
	"fpb/internal/exp"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/serve/client"
	"fpb/internal/system"
)

// Fleet sizing: three fpbd processes with one simulation worker each and
// every result replicated to two ring owners, and at least this many
// readback hits per repetition (four times what a p99 needs).
const (
	fleetNodes    = 3
	fleetReplicas = 2
	fleetMinHits  = 4000
)

// fleetWorkload drives fleet_fig18: per repetition, a fresh fleet with empty
// stores, the 65 Fig. 18 points as two sweeps, and a closed-loop readback of
// every result through client.Fleet.
type fleetWorkload struct {
	o      opts
	fpbd   string
	ck     *checker
	pts    []point
	specs  []cluster.SweepSpec
	conns  int       // readback connections: half of nproc, so the nodes keep a core
	posts  int       // concurrent sweep submissions
	timedS []float64 // untraced sweep+readback wall, sizes the node profiles
	nrep   int
	last   layerInputs
	note   []string
}

func newFleetWorkload(o opts, fpbd string, ck *checker, pinned bool) (*fleetWorkload, error) {
	if _, err := os.Stat(fpbd); err != nil {
		return nil, fmt.Errorf("fpbd binary: %w", err)
	}
	w := &fleetWorkload{o: o, fpbd: fpbd, ck: ck, pts: workloadPoints("fig18_cold", o.seed),
		conns: max(1, runtime.NumCPU()/2), posts: min(2, runtime.NumCPU())}
	base := baseConfig(o.seed, fig18Instr)
	w.specs = []cluster.SweepSpec{
		{Config: &base, Schemes: []string{"dimm+chip", "ideal"}, Mappings: []string{"ne"}, Workloads: exp.Workloads},
		{Config: &base, Schemes: []string{"gcp", "gcp+ipm", "gcp+ipm+mr"}, Mappings: []string{"bim"}, Workloads: exp.Workloads},
	}
	if !pinned {
		// No pinned digests for this seed: the in-process results are the
		// reference every fleet unit and hit must match byte for byte.
		ref, err := runChildRep("fig18_cold", o.seed, "", "")
		if err != nil {
			return nil, fmt.Errorf("in-process reference: %w", err)
		}
		if len(ref.Digests) != len(w.pts) || len(ref.Errors) > 0 {
			return nil, fmt.Errorf("in-process reference: %d of %d points, errors %v", len(ref.Digests), len(w.pts), ref.Errors)
		}
		ck.pin(ref.Digests)
	}
	return w, nil
}

func (w *fleetWorkload) sizing() string {
	return fmt.Sprintf("%d fpbd processes x 1 worker, replicas=%d, fresh empty stores and the next of %d fixed ring placements per repetition, started %d times; %d concurrent sweep POSTs; readback >= %d hits, closed loop on %d connection(s)",
		fleetNodes, fleetReplicas, len(fleetPorts), setupSamples, w.posts, fleetMinHits, w.conns)
}

func (w *fleetWorkload) layers() layerInputs { return w.last }

func (w *fleetWorkload) summary() []string { return w.note }

// fpbdNode is one running fpbd process; done closes once it has exited
// and been reaped.
type fpbdNode struct {
	addr    string
	cmd     *exec.Cmd
	log     *os.File
	done    chan struct{}
	waitErr error
}

func (w *fleetWorkload) rep(traced bool) (rep, error) {
	w.nrep++
	// The traced repetition reuses the first placement, so its overhead is
	// measured against untraced repetitions of the same placement.
	placement := w.nrep - 1
	if traced {
		placement = 0
	}
	dir := filepath.Join(w.o.outDir, fmt.Sprintf("fleet-%d", w.nrep))
	var sp *spans
	if traced {
		sp = newSpans()
	}
	root := sp.start(open{}, "fleet_fig18")
	s := sp.start(root, "fleet.start")
	nodes, setupS, err := w.startFleet(dir, placement)
	s.end()
	defer stopFleet(nodes)
	if err != nil {
		return rep{}, err
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Timeout: 90 * time.Second, Transport: tr}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}

	var profs []chan profResult
	var selfProf *os.File
	if traced {
		secs := 10.0
		if len(w.timedS) > 0 {
			secs = 1.5*median(w.timedS) + 2
		}
		for _, a := range addrs {
			ch := make(chan profResult, 1)
			profs = append(profs, ch)
			go func() {
				b, err := httpGet(hc, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", a, int(math.Ceil(secs))))
				ch <- profResult{b, err}
			}()
		}
		f, err := os.Create(filepath.Join(w.o.outDir, "fleet_fig18.client.cpu.pprof"))
		if err != nil {
			return rep{}, err
		}
		selfProf = f
		if err := pprof.StartCPUProfile(f); err != nil {
			return rep{}, err
		}
	}
	var alloc0 float64
	if traced {
		if alloc0, err = nodesAlloc(hc, addrs); err != nil {
			return rep{}, err
		}
	}
	selfAlloc0 := readRuntimeMetric("/gc/heap/allocs:bytes")
	cpu0, err := nodesCPU(nodes)
	if err != nil {
		return rep{}, err
	}
	self0 := selfCPU()

	// The sweeps.
	t0 := time.Now()
	sw := sp.start(root, "sweep")
	statuses := make([]cluster.SweepStatus, len(w.specs))
	errs := make([]error, len(w.specs))
	sem := make(chan struct{}, w.posts)
	var wg sync.WaitGroup
	for i, spec := range w.specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s := sp.start(sw, "POST /v1/sweeps?wait=1")
			statuses[i], errs[i] = postSweep(hc, addrs[0], spec)
			s.end()
		}()
	}
	wg.Wait()
	sw.end()
	sweepS := time.Since(t0).Seconds()
	w.checkSweeps(statuses, errs)

	// The readback, as fpbexp -remote a,b,c reads results: one job per
	// point through client.Fleet, every one a store hit.
	reg := obs.NewRegistry()
	fleet, err := client.NewFleet(addrs, client.FleetConfig{ProbeInterval: 5 * time.Second, RetryBudget: 30 * time.Second})
	if err != nil {
		return rep{}, err
	}
	defer fleet.Close()
	fleet.Instrument(reg)
	hitCPU0, err := nodesCPU(nodes)
	if err != nil {
		return rep{}, err
	}
	nHits := (fleetMinHits + len(w.pts) - 1) / len(w.pts) * len(w.pts)
	hits := make([]hitOut, nHits)
	var next atomic.Int64
	rb := sp.start(root, "readback")
	t1 := time.Now()
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nHits {
					return
				}
				p := w.pts[i%len(w.pts)]
				s := sp.start(rb, "client.Fleet.Do")
				t := time.Now()
				st, err := fleet.Do(context.Background(), serve.JobSpec{Workload: p.wl, Config: &p.cfg})
				hits[i] = hitOut{ms: float64(time.Since(t).Nanoseconds()) / 1e6, st: st, err: err}
				s.end()
			}
		}()
	}
	wg.Wait()
	rb.end()
	readS := time.Since(t1).Seconds()
	cpu1, err := nodesCPU(nodes)
	if err != nil {
		return rep{}, err
	}
	r := rep{placement: placement % len(fleetPorts), setupS: setupS, sweepS: sweepS, cpuS: (cpu1 - cpu0 + selfCPU() - self0).Seconds()}
	root.end()
	if !traced {
		w.timedS = append(w.timedS, time.Since(t0).Seconds())
	}

	results := map[string]system.Result{}
	for i, h := range hits {
		p := w.pts[i%len(w.pts)]
		r.hitsMs = append(r.hitsMs, h.ms)
		name := fmt.Sprintf("hit %s", p)
		switch {
		case h.err != nil:
			w.ck.fail(name + ": " + h.err.Error())
		case h.st.State != serve.StateDone || h.st.Result == nil:
			w.ck.fail(fmt.Sprintf("%s: state %s: %s", name, h.st.State, h.st.Error))
		case !h.st.Cached:
			w.ck.fail(name + ": simulated again instead of served from the store")
		default:
			if w.ck.check(name, p.key, digest(*h.st.Result)) {
				results[p.key] = *h.st.Result
			}
		}
	}
	for _, res := range results {
		r.instrs += res.Instrs
	}

	if traced {
		pprof.StopCPUProfile()
		if err := selfProf.Close(); err != nil {
			return rep{}, err
		}
		in, err := w.collectLayers(hc, addrs, profs, selfProf.Name(), alloc0, selfAlloc0, results, reg)
		if err != nil {
			return rep{}, err
		}
		in.sweepS = sweepS
		in.direct["serve.cpu_ms_per_hit"] = ratio((cpu1-hitCPU0).Seconds()*1e3, float64(nHits))
		in.spanLog = filepath.Join(w.o.outDir, "fleet_fig18.spans.jsonl")
		if err := sp.write(in.spanLog); err != nil {
			return rep{}, err
		}
		w.last = in
	}
	w.note = []string{fmt.Sprintf("fleet: last repetition read back %d hits in %.3f s; sweep per-node units %v",
		nHits, readS, perNodeOf(statuses))}

	rss, err := stopFleet(nodes)
	if err != nil {
		return rep{}, err
	}
	r.rssMB = max(rss, selfMaxRSSMB())
	if w.ck.failed == 0 {
		os.RemoveAll(dir)
	}
	return r, nil
}

type hitOut struct {
	ms  float64
	st  serve.JobStatus
	err error
}

type profResult struct {
	b   []byte
	err error
}

// checkSweeps checks both sweeps: settled done, every unit completed, and
// together exactly the benchmark's 65 points. The result each unit stored
// is checked against its reference by the readback, which reads every
// point back many times.
func (w *fleetWorkload) checkSweeps(statuses []cluster.SweepStatus, errs []error) {
	want := map[string]point{}
	for _, p := range w.pts {
		want[p.key] = p
	}
	seen := map[string]bool{}
	for i, st := range statuses {
		if errs[i] != nil {
			w.ck.fail(fmt.Sprintf("sweep %d: %v", i, errs[i]))
			continue
		}
		if st.State != cluster.SweepDone || st.Failed != 0 || st.Completed != st.Total {
			w.ck.fail(fmt.Sprintf("sweep %d: state %s, %d/%d completed, %d failed: %s",
				i, st.State, st.Completed, st.Total, st.Failed, st.Error))
		}
		for _, j := range st.Jobs {
			p, ok := want[j.Key]
			switch {
			case !ok:
				w.ck.fail(fmt.Sprintf("sweep unit %s/%s/%s: key %.12s is not a Fig. 18 point", j.Scheme, j.Mapping, j.Workload, j.Key))
			case j.State != serve.StateDone:
				w.ck.fail(fmt.Sprintf("sweep unit %s: %s: %s", p, j.State, j.Error))
			default:
				seen[j.Key] = true
				w.ck.pass(1)
			}
		}
	}
	for k, p := range want {
		if !seen[k] {
			w.ck.fail(fmt.Sprintf("sweep: point %s never completed", p))
		}
	}
}

func perNodeOf(statuses []cluster.SweepStatus) map[string]int {
	out := map[string]int{}
	for _, st := range statuses {
		for n, c := range st.PerNode {
			out[n] += c
		}
	}
	return out
}

// startFleet starts the fleet setupSamples times, kills all but the last
// start again, and returns that one with the median set-up time. A node may
// answer /healthz before it handles SIGTERM, so the fleets that did no work
// are killed rather than drained.
func (w *fleetWorkload) startFleet(dir string, placement int) ([]*fpbdNode, float64, error) {
	var samples []float64
	for {
		nodes, s, err := startFleetOnce(w.fpbd, dir, placement)
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, s)
		if len(samples) == setupSamples {
			return nodes, median(samples), nil
		}
		killFleet(nodes)
	}
}

// startFleetOnce starts the nodes on empty stores and waits until every
// /healthz answers; the wait is one set-up sample. A fleet that loses the
// race for its ports is started again.
func startFleetOnce(fpbd, dir string, placement int) ([]*fpbdNode, float64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		addrs, err := fleetAddrs(placement+attempt, fleetNodes)
		if err != nil {
			return nil, 0, err
		}
		var nodes []*fpbdNode
		t0 := time.Now()
		for i, a := range addrs {
			n, err := startNode(fpbd, filepath.Join(dir, fmt.Sprintf("n%d", i)), a, addrs)
			if err != nil {
				killFleet(nodes)
				return nil, 0, err
			}
			nodes = append(nodes, n)
		}
		if lastErr = waitHealthy(nodes, 30*time.Second); lastErr == nil {
			return nodes, time.Since(t0).Seconds(), nil
		}
		killFleet(nodes)
	}
	return nil, 0, lastErr
}

// fleetPorts are the base ports of the nodes. Ring placement hashes node
// addresses, and placement decides how evenly the units (and the prefill
// work each node repeats) spread, so repetition i of every run uses the
// i-th base port: a run's median covers the same few placements whatever
// ports the host would hand out. A base whose ports are taken is skipped.
var fleetPorts = []int{47311, 48411, 49511, 50611, 51711, 52811, 53911, 55011}

func fleetAddrs(rep, n int) ([]string, error) {
	for k := range fleetPorts {
		base := fleetPorts[(rep+k)%len(fleetPorts)]
		var out []string
		var ls []net.Listener
		for i := 0; i < n; i++ {
			a := fmt.Sprintf("127.0.0.1:%d", base+i)
			l, err := net.Listen("tcp", a)
			if err != nil {
				break
			}
			ls = append(ls, l)
			out = append(out, a)
		}
		for _, l := range ls {
			l.Close()
		}
		if len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("no free ports among %v", fleetPorts)
}

func startNode(fpbd, dir, addr string, peers []string) (*fpbdNode, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	// -pprof serves the profiles and heap totals of the traced run; it
	// costs nothing until used.
	args := []string{"-addr", addr, "-advertise", addr, "-peers", strings.Join(peers, ","),
		"-workers", "1", "-replicas", strconv.Itoa(fleetReplicas), "-store", filepath.Join(dir, "store"), "-pprof"}
	cmd := exec.Command(fpbd, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	n := &fpbdNode{addr: addr, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		n.waitErr = cmd.Wait()
		log.Close()
		close(n.done)
	}()
	return n, nil
}

func waitHealthy(nodes []*fpbdNode, timeout time.Duration) error {
	// One connection per poll: pooled ones would outlive the fleet.
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for _, n := range nodes {
		for {
			resp, err := hc.Get("http://" + n.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-n.done:
				return fmt.Errorf("fpbd %s exited during start-up: %v", n.addr, n.waitErr)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fpbd %s did not become healthy: %v", n.addr, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stopFleet stops every node (SIGTERM, then SIGKILL after 30 s), waits for
// each, and returns the largest resident high-water mark among them. It is
// safe to call again on stopped nodes.
func stopFleet(nodes []*fpbdNode) (float64, error) {
	for _, n := range nodes {
		n.cmd.Process.Signal(syscall.SIGTERM)
	}
	var rss float64
	var firstErr error
	for _, n := range nodes {
		select {
		case <-n.done:
		case <-time.After(30 * time.Second):
			n.cmd.Process.Kill()
			<-n.done
		}
		if n.waitErr != nil && firstErr == nil {
			firstErr = fmt.Errorf("fpbd %s: %w", n.addr, n.waitErr)
		}
		rss = max(rss, exitedRSSMB(n.cmd.ProcessState))
	}
	return rss, firstErr
}

// killFleet kills every node and waits until each has been reaped.
func killFleet(nodes []*fpbdNode) {
	for _, n := range nodes {
		n.cmd.Process.Kill()
	}
	for _, n := range nodes {
		<-n.done
	}
}

func nodesCPU(nodes []*fpbdNode) (time.Duration, error) {
	var sum time.Duration
	for _, n := range nodes {
		c, err := procCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// nodesAlloc sums the nodes' cumulative heap allocation (MemStats
// TotalAlloc, from the pprof heap endpoint).
func nodesAlloc(hc *http.Client, addrs []string) (float64, error) {
	var sum float64
	for _, a := range addrs {
		b, err := httpGet(hc, "http://"+a+"/debug/pprof/heap?debug=1")
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return 0, err
				}
				sum += x
			}
		}
	}
	return sum, nil
}

func postSweep(hc *http.Client, addr string, spec cluster.SweepSpec) (cluster.SweepStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return cluster.SweepStatus{}, err
	}
	resp, err := hc.Post("http://"+addr+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return cluster.SweepStatus{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return cluster.SweepStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return cluster.SweepStatus{}, fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var st cluster.SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return cluster.SweepStatus{}, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	return st, nil
}

func httpGet(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// collectLayers gathers the traced repetition's per-layer data: the CPU
// profiles of the nodes and of the client, the nodes' metric expositions,
// the client's registry, heap allocation, and the model counters of the
// results read back.
func (w *fleetWorkload) collectLayers(hc *http.Client, addrs []string, profs []chan profResult, selfProf string,
	alloc0, selfAlloc0 float64, results map[string]system.Result, reg *obs.Registry) (layerInputs, error) {
	in := layerInputs{counters: map[string]float64{}, direct: map[string]float64{}}
	stacks, err := readProfile(selfProf)
	if err != nil {
		return in, err
	}
	in.stacks = stacks
	for _, ch := range profs {
		pr := <-ch
		if pr.err != nil {
			return in, fmt.Errorf("node profile: %w", pr.err)
		}
		st, err := parseProfile(pr.b)
		if err != nil {
			return in, err
		}
		in.stacks = append(in.stacks, st...)
	}
	alloc1, err := nodesAlloc(hc, addrs)
	if err != nil {
		return in, err
	}
	in.counters["runtime.alloc_bytes"] = alloc1 - alloc0 + readRuntimeMetric("/gc/heap/allocs:bytes") - selfAlloc0
	sumCounters(in.counters, results)

	node := map[string]float64{}
	for _, a := range addrs {
		b, err := httpGet(hc, "http://"+a+"/metrics?format=prometheus")
		if err != nil {
			return in, err
		}
		m, _ := obs.ParsePrometheus(string(b))
		for k, v := range m {
			node[k] += v
		}
	}
	var cb bytes.Buffer
	if err := reg.WritePrometheus(&cb); err != nil {
		return in, err
	}
	cl, _ := obs.ParsePrometheus(cb.String())

	d := in.direct
	d["serve.cache_hits"] = node["serve_cache_hits"]
	d["serve.cache_misses"] = node["serve_cache_misses"]
	d["serve.rejected"] = node["serve_jobs_rejected"]
	d["serve.queue_wait_ms_p50"] = histQuantile(node, "serve_job_queue_wait_ms", 0.50, &in.notes)
	d["serve.queue_wait_ms_p99"] = histQuantile(node, "serve_job_queue_wait_ms", 0.99, &in.notes)
	d["serve.sim_ms_p50"] = histQuantile(node, "serve_job_sim_ms", 0.50, &in.notes)
	d["serve.store_write_ms_p50"] = histQuantile(node, "serve_job_store_write_ms", 0.50, &in.notes)
	d["client.request_ms_p50"] = histQuantile(cl, "client_request_ms", 0.50, &in.notes)
	d["client.request_ms_p99"] = histQuantile(cl, "client_request_ms", 0.99, &in.notes)
	d["client.retries_429"] = cl["client_retries_429"]
	d["client.failovers"] = cl["client_fleet_failovers"]
	d["cluster.unit_ms_p50"] = histQuantile(node, "cluster_sweep_job_ms", 0.50, &in.notes)
	d["cluster.unit_ms_p99"] = histQuantile(node, "cluster_sweep_job_ms", 0.99, &in.notes)
	d["cluster.dispatch_ms_mean"] = ratio(node["cluster_sweep_job_ms_sum"]-node["serve_job_queue_wait_ms_sum"]-node["serve_job_sim_ms_sum"],
		node["cluster_sweep_job_ms_count"])
	d["cluster.replicas_pushed"] = node["cluster_replicas_pushed"]
	d["cluster.retried"] = node["cluster_jobs_retried"]
	var done, busiest float64
	for k, v := range node {
		if strings.HasPrefix(k, "cluster_node_") && strings.HasSuffix(k, "_jobs_done") {
			done += v
			busiest = max(busiest, v)
		}
	}
	d["cluster.max_node_share"] = ratio(busiest, done)
	return in, nil
}

// histQuantile reads a quantile from scraped histogram buckets, withheld
// (0, with a note) when the histogram holds too few samples for it.
func histQuantile(samples map[string]float64, name string, q float64, notes *[]string) float64 {
	if n := samples[name+"_count"]; n < float64(minSamples(q)) {
		*notes = append(*notes, fmt.Sprintf("p%g of %s withheld: %.0f samples < %d", q*100, name, n, minSamples(q)))
		return 0
	}
	v, _ := obs.HistogramQuantile(samples, name, q)
	return v
}
