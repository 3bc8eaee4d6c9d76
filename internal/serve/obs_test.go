package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// Aliases keep the injected Simulate closures on one line.
type (
	simCfg    = sim.Config
	sysResult = system.Result
)

// syncWriter serializes concurrent slog writes from workers and handlers.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestJobLifecycleRecord follows one job end to end: the response carries a
// lifecycle record with stage timings, a second identical request is a
// cache hit with the same result, every structured log line about the job
// carries its correlation ID, and the stage histograms saw the job.
func TestJobLifecycleRecord(t *testing.T) {
	dir := t.TempDir()
	logs := &syncWriter{}
	s, ts := newTestServer(t, Config{
		Workers:  2,
		StoreDir: dir,
		Logger:   slog.New(slog.NewJSONHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
		Simulate: func(cfg simCfg, wl string) (sysResult, error) {
			time.Sleep(5 * time.Millisecond)
			return fakeResult(cfg, wl), nil
		},
	})

	code, st := postJob(t, ts.URL, spec(11), "")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("fresh job: code=%d state=%s err=%s", code, st.State, st.Error)
	}
	if st.Lifecycle == nil {
		t.Fatal("fresh job has no lifecycle record")
	}
	if st.Lifecycle.Outcome != OutcomeFresh {
		t.Fatalf("outcome = %q, want %q", st.Lifecycle.Outcome, OutcomeFresh)
	}
	if st.Lifecycle.SimMs < 5 {
		t.Fatalf("sim_ms = %v, want >= 5 (simulate sleeps 5ms)", st.Lifecycle.SimMs)
	}
	if st.Lifecycle.QueueWaitMs < 0 || st.Lifecycle.StoreWriteMs <= 0 {
		t.Fatalf("stage timings implausible: %+v", st.Lifecycle)
	}

	// Second identical request: answered from the store, marked as such.
	code2, st2 := postJob(t, ts.URL, spec(11), "")
	if code2 != http.StatusOK || !st2.Cached {
		t.Fatalf("repeat job: code=%d cached=%v", code2, st2.Cached)
	}
	if st2.Lifecycle == nil || st2.Lifecycle.Outcome != OutcomeCacheHit {
		t.Fatalf("repeat job lifecycle = %+v, want outcome %q", st2.Lifecycle, OutcomeCacheHit)
	}
	if st2.ID == st.ID {
		t.Fatal("cache hit reused the original correlation ID")
	}

	// Every log line that mentions a job carries its correlation ID, and
	// the fresh job's ID appears on accept, start, and done lines.
	var sawAccept, sawStart, sawDone bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		id, _ := rec["job"].(string)
		msg, _ := rec["msg"].(string)
		switch msg {
		case "job accepted", "job start", "job done", "job failed", "job cache hit", "job coalesced":
			if id == "" {
				t.Fatalf("lifecycle log line without job id: %q", line)
			}
		}
		if id == st.ID {
			switch msg {
			case "job accepted":
				sawAccept = true
			case "job start":
				sawStart = true
			case "job done":
				sawDone = true
			}
		}
	}
	if !sawAccept || !sawStart || !sawDone {
		t.Fatalf("missing lifecycle log lines for %s: accept=%v start=%v done=%v\n%s",
			st.ID, sawAccept, sawStart, sawDone, logs.String())
	}

	// The stage histograms saw exactly the one fresh simulation.
	for _, name := range []string{"serve.job.queue_wait_ms", "serve.job.sim_ms", "serve.job.store_write_ms"} {
		if n := s.reg.Histogram(name, nil).Count(); n != 1 {
			t.Errorf("%s count = %d, want 1", name, n)
		}
	}
}

// TestMetricsContentNegotiation: /metrics has one representation. Every
// request — bare, ?format=json|prometheus|prom, or an Accept header asking
// for JSON, text/plain or OpenMetrics — gets the Prometheus text with every
// serving series (dashboards scrape these exact names, so renames are
// regressions).
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		StoreDir: t.TempDir(),
		Simulate: func(cfg simCfg, wl string) (sysResult, error) { return fakeResult(cfg, wl), nil },
	})
	if code, _ := postJob(t, ts.URL, spec(1), ""); code != http.StatusOK {
		t.Fatalf("job failed: %d", code)
	}

	get := func(query string, hdr map[string]string) (string, string) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/metrics"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics%s = %d", query, resp.StatusCode)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	for _, req := range []struct {
		query string
		hdr   map[string]string
	}{
		{"", nil},
		{"?format=json", nil},
		{"?format=prometheus", nil},
		{"?format=prom", nil},
		{"", map[string]string{"Accept": "application/json"}},
		{"", map[string]string{"Accept": "text/plain;version=0.0.4;q=0.5,*/*;q=0.1"}},
		{"", map[string]string{"Accept": "application/openmetrics-text;version=1.0.0"}},
		{"?format=json", map[string]string{"Accept": "text/plain"}},
	} {
		ct, body := get(req.query, req.hdr)
		if ct != obs.PrometheusContentType {
			t.Fatalf("%q %v: ct=%q", req.query, req.hdr, ct)
		}
		samples, bad := obs.ParsePrometheus(body)
		if len(bad) != 0 {
			t.Fatalf("unparseable exposition lines: %v", bad)
		}
		if samples["serve_jobs_done"] != 1 {
			t.Fatalf("serve_jobs_done = %v, want 1", samples["serve_jobs_done"])
		}
		if !strings.Contains(body, "# TYPE serve_job_sim_ms histogram") {
			t.Fatal("exposition missing histogram TYPE line")
		}
		for _, name := range []string{
			"serve_jobs_accepted", "serve_jobs_coalesced", "serve_jobs_rejected",
			"serve_jobs_done", "serve_jobs_failed", "serve_jobs_records",
			"serve_store_put_errors",
			"serve_cache_hits", "serve_cache_misses",
			"serve_queue_depth", "serve_queue_capacity",
			"serve_workers_busy", "serve_workers_total",
			"serve_store_entries",
			"serve_job_queue_wait_ms_count", "serve_job_sim_ms_count",
			"serve_job_store_write_ms_count",
		} {
			if _, ok := samples[name]; !ok {
				t.Errorf("%q %v: serving series %q missing", req.query, req.hdr, name)
			}
		}
	}
}

// TestLegacyMetricNamesPresent pins the pre-Prometheus /metrics keys:
// dashboards scrape these exact names, now in exposition form (dots become
// underscores), so renames are regressions. The serve.latency_ms gauges are
// gone; the serve.job stage histograms cover the same interval.
func TestLegacyMetricNamesPresent(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		StoreDir: t.TempDir(),
		Simulate: func(cfg simCfg, wl string) (sysResult, error) { return fakeResult(cfg, wl), nil },
	})
	if code, _ := postJob(t, ts.URL, spec(2), ""); code != http.StatusOK {
		t.Fatal("job failed")
	}
	m := getMetrics(t, ts.URL)
	for _, name := range []string{
		"serve.jobs.accepted", "serve.jobs.coalesced", "serve.jobs.rejected",
		"serve.jobs.done", "serve.jobs.failed", "serve.jobs.records",
		"serve.cache.hits", "serve.cache.misses",
		"serve.queue.depth", "serve.queue.capacity",
		"serve.workers.busy", "serve.workers.total",
		"serve.store.entries",
	} {
		if _, ok := m[strings.ReplaceAll(name, ".", "_")]; !ok {
			t.Errorf("legacy metric %q missing from /metrics", name)
		}
	}
}

// TestPprofGate: the profiling endpoints exist only when opted in.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{
		Workers:  1,
		Simulate: func(cfg simCfg, wl string) (sysResult, error) { return fakeResult(cfg, wl), nil },
	})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{
		Workers:     1,
		EnablePprof: true,
		Simulate:    func(cfg simCfg, wl string) (sysResult, error) { return fakeResult(cfg, wl), nil },
	})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index broken with opt-in: %d", resp.StatusCode)
	}
}
