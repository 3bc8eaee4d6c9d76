package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// fakeResult builds a deterministic result that depends on the job identity,
// so tests can check the right entry came back.
func fakeResult(cfg sim.Config, wl string) system.Result {
	return system.Result{
		Workload: wl,
		Scheme:   cfg.Scheme.String(),
		CPI:      float64(cfg.Seed%97) + 1,
		Instrs:   cfg.InstrPerCore,
		Metrics:  map[string]float64{"fake.seed": float64(cfg.Seed)},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postJob(t *testing.T, url string, spec JobSpec, query string) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, st
}

// getMetrics scrapes /metrics into Prometheus sample names and values.
func getMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m, bad := obs.ParsePrometheus(string(body))
	if len(bad) != 0 {
		t.Fatalf("unparseable exposition lines: %v", bad)
	}
	return m
}

// spec returns a small valid job spec; seed varies the job identity.
func spec(seed uint64) JobSpec {
	return JobSpec{Workload: "mcf_m", Scheme: "fpb", Seed: seed, InstrPerCore: 1000}
}

// --- Acceptance (a): k concurrent identical requests, one simulation ---

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	const k = 8
	var sims atomic.Int64
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers:    4,
		QueueDepth: 16,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			sims.Add(1)
			<-release
			return fakeResult(cfg, wl), nil
		},
	})

	type reply struct {
		code int
		st   JobStatus
	}
	replies := make(chan reply, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, st := postJob(t, ts.URL, spec(7), "")
			replies <- reply{code, st}
		}()
	}
	// Hold the simulation until every request has either started the one
	// job or coalesced onto it, so no request can arrive late and miss
	// the in-flight window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		if m["serve_jobs_coalesced"] == k-1 && m["serve_jobs_accepted"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(replies)

	if n := sims.Load(); n != 1 {
		t.Fatalf("%d identical requests ran %d simulations, want 1", k, n)
	}
	var first *JobStatus
	cachedCount := 0
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %+v", r.code, r.st)
		}
		if r.st.State != StateDone || r.st.Result == nil {
			t.Fatalf("bad reply: %+v", r.st)
		}
		if r.st.Cached {
			cachedCount++
		}
		if first == nil {
			first = &r.st
			continue
		}
		if r.st.ID != first.ID || r.st.Key != first.Key {
			t.Errorf("replies name different jobs: %s vs %s", r.st.ID, first.ID)
		}
		if !reflect.DeepEqual(r.st.Result, first.Result) {
			t.Errorf("replies differ: %+v vs %+v", r.st.Result, first.Result)
		}
	}
	if cachedCount != k-1 {
		t.Errorf("%d replies marked cached/coalesced, want %d", cachedCount, k-1)
	}
}

// --- Acceptance (b): restart over the same store serves from disk ---

func TestRestartServesFromPersistentStore(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	s1, ts1 := newTestServer(t, Config{
		Workers:  2,
		StoreDir: dir,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			sims.Add(1)
			return fakeResult(cfg, wl), nil
		},
	})
	code, st1 := postJob(t, ts1.URL, spec(41), "")
	if code != http.StatusOK || st1.State != StateDone {
		t.Fatalf("first run: %d %+v", code, st1)
	}
	if st1.Cached {
		t.Error("first ever run reported cached")
	}
	ts1.Close()
	s1.Drain()

	// "Restart": a fresh server over the same directory whose simulator
	// must never run.
	_, ts2 := newTestServer(t, Config{
		Workers:  2,
		StoreDir: dir,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			t.Error("restarted daemon re-simulated a stored job")
			return fakeResult(cfg, wl), nil
		},
	})
	code, st2 := postJob(t, ts2.URL, spec(41), "")
	if code != http.StatusOK || st2.State != StateDone {
		t.Fatalf("warm run: %d %+v", code, st2)
	}
	if !st2.Cached {
		t.Error("warm run not marked cached")
	}
	if !reflect.DeepEqual(st1.Result, st2.Result) {
		t.Errorf("stored result differs:\n%+v\n%+v", st1.Result, st2.Result)
	}
	if sims.Load() != 1 {
		t.Errorf("simulations = %d, want 1", sims.Load())
	}
	m := getMetrics(t, ts2.URL)
	if m["serve_cache_hits"] != 1 {
		t.Errorf("cache hits = %v, want 1", m["serve_cache_hits"])
	}
	if m["serve_store_entries"] != 1 {
		t.Errorf("store entries = %v, want 1", m["serve_store_entries"])
	}
}

// --- Acceptance (c): queue saturation answers 429 and never deadlocks ---

func TestQueueSaturationRejectsWithoutDeadlock(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 3 * time.Second,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(cfg, wl), nil
		},
	})

	// Job 1 occupies the only worker; job 2 fills the queue.
	_, stA := postJob(t, ts.URL, spec(1), "?async=1")
	<-started
	_, stB := postJob(t, ts.URL, spec(2), "?async=1")

	// The pool is saturated: further distinct jobs must be pushed back.
	body, _ := json.Marshal(spec(3))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue answered %d (%s), want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}
	m := getMetrics(t, ts.URL)
	if m["serve_jobs_rejected"] != 1 {
		t.Errorf("rejected = %v, want 1", m["serve_jobs_rejected"])
	}

	// Releasing the worker drains everything; the rejected job succeeds
	// on resubmission. Nothing deadlocks.
	close(release)
	for _, id := range []string{stA.ID, stB.ID} {
		waitJobDone(t, ts.URL, id)
	}
	code, stC := postJob(t, ts.URL, spec(3), "")
	if code != http.StatusOK || stC.State != StateDone {
		t.Fatalf("post-saturation job: %d %+v", code, stC)
	}
}

func waitJobDone(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- Acceptance (d): shutdown drains in-flight jobs, no lost responses ---

// waitServer polls cond under the server's lock until it holds.
func waitServer(t *testing.T, s *Server, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reached the awaited state")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainCompletesInFlightJobs(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 8,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			started <- struct{}{}
			<-release
			return fakeResult(cfg, wl), nil
		},
	})

	const jobs = 3 // 2 running + 1 queued at drain time
	replies := make(chan JobStatus, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			code, st := postJob(t, ts.URL, spec(seed), "")
			if code != http.StatusOK {
				t.Errorf("drained job got status %d: %+v", code, st)
				return
			}
			replies <- st
		}(uint64(100 + i))
	}
	<-started
	<-started // both workers busy
	// Drain only once the third job is queued: a POST still in flight
	// when Drain begins is refused, not drained.
	waitServer(t, s, func() bool { return len(s.queue) == 1 })

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// A draining server refuses new work with 503. Probe only once Drain
	// has begun: a probe accepted before that would block until release.
	waitServer(t, s, func() bool { return s.draining })
	body, _ := json.Marshal(spec(999))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered new work with %d, want 503", resp.StatusCode)
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
	wg.Wait()
	close(replies)
	got := 0
	for st := range replies {
		if st.State != StateDone || st.Result == nil {
			t.Errorf("lost or failed response: %+v", st)
			continue
		}
		got++
	}
	if got != jobs {
		t.Errorf("drain delivered %d/%d responses", got, jobs)
	}
}

// --- Determinism: served results match in-process simulation exactly ---

func TestServedResultMatchesInProcessRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	_, ts := newTestServer(t, Config{Workers: 1}) // default Simulate = system.RunWorkload

	js := spec(0) // default seed
	cfg, wl, err := js.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := system.RunWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}

	code, st := postJob(t, ts.URL, js, "")
	if code != http.StatusOK || st.State != StateDone || st.Result == nil {
		t.Fatalf("served run: %d %+v", code, st)
	}
	if !reflect.DeepEqual(*st.Result, want) {
		t.Errorf("served result differs from in-process run:\nserved %+v\nlocal  %+v", *st.Result, want)
	}
	if st.Key != system.Key(cfg, wl) {
		t.Errorf("served key %s != canonical key", st.Key)
	}
}

// --- API edges ---

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) { return fakeResult(cfg, wl), nil },
	})
	// A full config that is valid but for the one field under test, so
	// nothing else in it can be why it is refused.
	config := func(mutate func(*sim.Config)) string {
		cfg := sim.DefaultConfig()
		mutate(&cfg)
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	noWays := config(func(c *sim.Config) { c.L1Ways = 0 })
	hugeL3 := config(func(c *sim.Config) { c.L3SizeMB = sim.MaxL3SizeMB + 1 })
	hugeLine := config(func(c *sim.Config) { c.L3LineB = 2 * sim.MaxL3LineB })
	shortL1Line := config(func(c *sim.Config) { c.L1LineB = sim.MinL1LineB / 2 })
	// A config from a release that still had the warmup phase.
	withWarmup := strings.Replace(config(func(*sim.Config) {}), `,"Seed":`, `,"WarmupCycles":1,"Seed":`, 1)
	cases := []struct {
		name string
		body string
	}{
		{"empty workload", `{}`},
		{"bad scheme", `{"workload":"mcf_m","scheme":"warp-drive"}`},
		{"bad mapping", `{"workload":"mcf_m","mapping":"zigzag"}`},
		{"unknown field", `{"workload":"mcf_m","wat":1}`},
		{"syntax", `{"workload":`},
		{"zero L1 ways", `{"workload":"mcf_m","config":` + noWays + `}`},
		{"L3 above the stream layout", `{"workload":"mcf_m","config":` + hugeL3 + `}`},
		{"L3 line above the stream layout", `{"workload":"mcf_m","config":` + hugeLine + `}`},
		{"L1 line below the hot accesses' step", `{"workload":"mcf_m","config":` + shortL1Line + `}`},
		{"warmup_cycles", `{"workload":"mcf_m","warmup_cycles":1000}`},
		{"warmup_scheme", `{"workload":"mcf_m","warmup_scheme":"dimm+chip"}`},
		{"config.WarmupCycles", `{"workload":"mcf_m","config":` + withWarmup + `}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// The largest L3 the layout allows is a valid spec.
	cfg := sim.DefaultConfig()
	cfg.L3SizeMB = sim.MaxL3SizeMB
	if code, st := postJob(t, ts.URL, JobSpec{Workload: "mcf_m", Config: &cfg}, ""); code != http.StatusOK {
		t.Errorf("L3SizeMB %d: status %d %+v, want 200", cfg.L3SizeMB, code, st)
	}
}

// TestUnboundedIterationLawRejected: a spec whose iteration law would make
// every cell draw about 1e9 iterations (a histogram of tens of GB, a fatal
// out-of-memory that panic containment cannot catch) gets the 400 of any
// invalid spec, and nothing is simulated.
func TestUnboundedIterationLawRejected(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			sims.Add(1)
			return fakeResult(cfg, wl), nil
		},
	})
	cfg := sim.DefaultConfig()
	cfg.IterMax, cfg.Iter01Mean = 1<<30, 1e9
	code, st := postJob(t, ts.URL, JobSpec{Workload: "mcf_m", Config: &cfg}, "")
	if code != http.StatusBadRequest || st.State != StateFailed {
		t.Errorf("unbounded iteration law: status %d %+v, want 400", code, st)
	}
	if n := sims.Load(); n != 0 {
		t.Errorf("%d simulations ran for a rejected spec", n)
	}
}

func TestFailedSimulationReports422(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			return system.Result{}, fmt.Errorf("no such workload %q", wl)
		},
	})
	code, st := postJob(t, ts.URL, spec(5), "")
	if code != http.StatusUnprocessableEntity || st.State != StateFailed {
		t.Fatalf("failed sim: %d %+v", code, st)
	}
	if st.Error == "" {
		t.Error("failure carried no error message")
	}
}

// TestPanickingSimulationFailsOneJob: a simulation that panics fails its
// own job (422, the panic value as the error, counted as failed, its stack
// logged with the job ID) and the daemon keeps serving.
func TestPanickingSimulationFailsOneJob(t *testing.T) {
	logs := &syncWriter{}
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Logger:  slog.New(slog.NewTextHandler(logs, nil)),
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			if cfg.Seed == 5 {
				panic("model invariant broken")
			}
			return fakeResult(cfg, wl), nil
		},
	})
	code, st := postJob(t, ts.URL, spec(5), "")
	if code != http.StatusUnprocessableEntity || st.State != StateFailed {
		t.Fatalf("panicking sim: %d %+v", code, st)
	}
	if !strings.Contains(st.Error, "model invariant broken") {
		t.Errorf("error %q does not carry the panic value", st.Error)
	}
	if got := getMetrics(t, ts.URL)["serve_jobs_failed"]; got != 1 {
		t.Errorf("serve_jobs_failed = %v, want 1", got)
	}
	log := logs.String()
	if !strings.Contains(log, "job panicked") || !strings.Contains(log, st.ID) ||
		!strings.Contains(log, "TestPanickingSimulationFailsOneJob") {
		t.Errorf("panic log lacks the job ID or the stack:\n%s", log)
	}
	assertServing(t, ts.URL)
}

// TestPanickedSpecRunsOnce: the server remembers a spec whose simulation
// panicked, so repeats of it — through RunLocal, the sync POST /v1/jobs and
// an async POST, whose record GET /v1/jobs/{id} serves — fail at once with
// the identical 422 error instead of running into the same panic again.
func TestPanickedSpecRunsOnce(t *testing.T) {
	var calls atomic.Int32
	srv, ts := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(sim.Config, string) (system.Result, error) {
			calls.Add(1)
			panic("model invariant broken")
		},
	})
	code, first := postJob(t, ts.URL, spec(5), "")
	if code != http.StatusUnprocessableEntity || first.State != StateFailed ||
		!strings.Contains(first.Error, "model invariant broken") {
		t.Fatalf("panicking sim: %d %+v", code, first)
	}

	cfg, wl, err := spec(5).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.RunLocal(context.Background(), cfg, wl)
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Code != http.StatusUnprocessableEntity ||
		serr.Msg != first.Error || st.State != StateFailed || st.Error != first.Error {
		t.Errorf("RunLocal repeat: %+v, %v; want the first 422 %q", st, err, first.Error)
	}
	code, again := postJob(t, ts.URL, spec(5), "")
	if code != http.StatusUnprocessableEntity || again.State != StateFailed || again.Error != first.Error {
		t.Errorf("sync repeat: %d %+v; want the first 422 %q", code, again, first.Error)
	}
	if again.Lifecycle == nil || again.Lifecycle.Outcome != OutcomeKnownPanic {
		t.Errorf("sync repeat lifecycle %+v, want outcome %q", again.Lifecycle, OutcomeKnownPanic)
	}
	code, async := postJob(t, ts.URL, spec(5), "?async=1")
	if code != http.StatusOK || async.State != StateFailed || async.Error != first.Error {
		t.Errorf("async repeat: %d %+v; want a failed record with %q", code, async, first.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + async.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rec JobStatus
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || rec.State != StateFailed || rec.Error != first.Error {
		t.Errorf("async record: %+v, %v; want failed with %q", rec, err, first.Error)
	}

	if n := calls.Load(); n != 1 {
		t.Errorf("the panicking spec simulated %d times, want once", n)
	}
	m := getMetrics(t, ts.URL)
	if m["serve_jobs_failed"] != 1 || m["serve_jobs_panic_repeats"] != 3 {
		t.Errorf("serve_jobs_failed %v, serve_jobs_panic_repeats %v; want 1 and 3",
			m["serve_jobs_failed"], m["serve_jobs_panic_repeats"])
	}
}

// TestDeadlockSpecFailsOneJob: a spec that passes Validate but can never
// admit a write (a one-token DIMM budget) trips the simulator's deadlock
// panic; it must fail as one 422 job, not kill the daemon.
func TestDeadlockSpecFailsOneJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cfg := sim.DefaultConfig()
	cfg.DIMMTokens = 1
	cfg.InstrPerCore = 2000
	if err := cfg.Validate(); err != nil {
		t.Fatalf("the deadlock spec no longer passes Validate: %v", err)
	}
	code, st := postJob(t, ts.URL, JobSpec{Workload: "mcf_m", Config: &cfg}, "")
	if code != http.StatusUnprocessableEntity || !strings.Contains(st.Error, "deadlock") {
		t.Fatalf("deadlock spec: %d %+v", code, st)
	}
	assertServing(t, ts.URL)
}

// assertServing checks that /healthz answers and a normal job completes.
func assertServing(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if code, st := postJob(t, url, spec(6), ""); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("normal job after a failure: %d %+v", code, st)
	}
}

func TestAsyncLifecycle(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			<-release
			return fakeResult(cfg, wl), nil
		},
	})
	code, st := postJob(t, ts.URL, spec(9), "?async=1")
	if code != http.StatusAccepted {
		t.Fatalf("async submit: %d %+v", code, st)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("async state = %s", st.State)
	}
	close(release)
	final := waitJobDone(t, ts.URL, st.ID)
	if final.Result == nil || final.Result.Workload != "mcf_m" {
		t.Errorf("async result: %+v", final.Result)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) { return fakeResult(cfg, wl), nil },
	})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body: %v", body)
	}
}
