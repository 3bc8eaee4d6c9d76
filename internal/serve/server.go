package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"fpb/internal/obs"
	"fpb/internal/pcm"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// SimulateFunc runs one simulation; the default is system.RunWorkload.
// Tests inject counters, sleeps, and failures through it.
type SimulateFunc func(sim.Config, string) (system.Result, error)

// Config sizes a Server.
type Config struct {
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). A full
	// queue rejects new work with 429 + Retry-After instead of blocking.
	QueueDepth int
	// StoreDir roots the persistent result store; empty disables
	// persistence (results then live only as long as the job records).
	StoreDir string
	// RetryAfter is advertised on 429 responses (default 1s).
	RetryAfter time.Duration
	// Simulate overrides the simulation function (default
	// system.RunWorkload). Used by tests.
	Simulate SimulateFunc
	// Logger receives structured job-lifecycle logs (every line carries
	// the job's correlation ID). nil discards them — tests and embedders
	// that don't care stay silent.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profiling endpoints on a fleet daemon are an operator
	// decision, not a default.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// maxJobRecords bounds the job records kept for async polling, whose oldest
// finished records are evicted first, and the panicked specs remembered,
// oldest forgotten first.
const maxJobRecords = 1024

// panicError is the error of a simulation that panicked.
type panicError string

func (e panicError) Error() string { return string(e) }

// job is one accepted unit of work. Its fields past done are written by the
// completing worker before done is closed and are read-only afterwards.
type job struct {
	id  string
	key string
	cfg sim.Config
	wl  string

	acceptedAt time.Time // when submit admitted it (wall clock)

	done chan struct{} // closed exactly once, on completion

	// Guarded by Server.mu until done is closed.
	state JobState
	res   system.Result
	err   error
	lc    Lifecycle // per-job lifecycle record, keyed by id everywhere
}

// status snapshots a job into its wire form. Callers must hold Server.mu
// unless the job's done channel is already closed.
func (j *job) status() JobStatus {
	st := JobStatus{ID: j.id, Key: j.key, State: j.state}
	switch j.state {
	case StateDone:
		res := j.res
		st.Result = &res
	case StateFailed:
		st.Error = j.err.Error()
	}
	if j.lc.Outcome != "" {
		lc := j.lc
		st.Lifecycle = &lc
	}
	return st
}

// Server implements the simulation service. Create with New, mount as an
// http.Handler, stop with Drain.
type Server struct {
	cfg   Config
	store *Store // nil when persistence is disabled
	reg   *obs.Registry
	log   *slog.Logger
	mux   *http.ServeMux
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	inflight map[string]*job // queued or running, by key — the dedupe table
	jobs     map[string]*job // every known job, by id (async polling)
	order    []string        // job ids in acceptance order, for eviction
	nextID   uint64
	busy     int // workers currently simulating
	// panicked maps the key of each spec whose simulation panicked to its
	// error, so a repeat fails at once instead of panicking again;
	// panickedOrder holds the keys oldest first.
	panicked      map[string]panicError
	panickedOrder []string

	// Metrics. Counters and histograms are individually thread-safe
	// (sync/atomic); gauge closures read mu-guarded fields WITHOUT
	// locking, so every registry snapshot happens under mu (see
	// registerMetrics).
	cAccepted, cCoalesced, cRejected *obs.Counter
	cDone, cFailed, cPanicRepeats    *obs.Counter
	cHits, cMisses                   *obs.Counter
	cStoreErrors                     *obs.Counter
	hQueueWait, hSim, hStore         *obs.Histogram // lifecycle stage histograms, ms
}

// New builds a server, opens its store, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		log:      cfg.Logger,
		queue:    make(chan *job, cfg.QueueDepth),
		inflight: make(map[string]*job),
		jobs:     make(map[string]*job),
		panicked: make(map[string]panicError),
	}
	if cfg.StoreDir != "" {
		st, err := OpenStore(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	s.registerMetrics()
	if s.cfg.Simulate == nil {
		s.cfg.Simulate = system.RunWorkload
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerMetrics populates the server's obs registry. Gauge closures read
// mu-guarded fields WITHOUT locking: every reader (the /metrics and /healthz
// handlers) snapshots the registry while already holding mu.
func (s *Server) registerMetrics() {
	s.cAccepted = s.reg.Counter("serve.jobs.accepted")
	s.cCoalesced = s.reg.Counter("serve.jobs.coalesced")
	s.cRejected = s.reg.Counter("serve.jobs.rejected")
	s.cDone = s.reg.Counter("serve.jobs.done")
	s.cFailed = s.reg.Counter("serve.jobs.failed")
	s.cPanicRepeats = s.reg.Counter("serve.jobs.panic_repeats")
	s.cHits = s.reg.Counter("serve.cache.hits")
	s.cMisses = s.reg.Counter("serve.cache.misses")
	s.cStoreErrors = s.reg.Counter("serve.store.put_errors")
	s.reg.Gauge("serve.queue.depth", func() float64 { return float64(len(s.queue)) })
	s.reg.Gauge("serve.queue.capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	s.reg.Gauge("serve.workers.busy", func() float64 { return float64(s.busy) })
	s.reg.Gauge("serve.workers.total", func() float64 { return float64(s.cfg.Workers) })
	s.reg.Gauge("serve.jobs.records", func() float64 { return float64(len(s.jobs)) })
	// The process's PCM draw memo, shared by every simulation it runs.
	s.reg.Gauge("pcm.draw_memo.entries", func() float64 { return float64(pcm.DrawMemoStats().Entries) })
	s.reg.Gauge("pcm.draw_memo.bytes", func() float64 { return float64(pcm.DrawMemoStats().Bytes) })
	s.reg.Gauge("pcm.draw_memo.hits", func() float64 { return float64(pcm.DrawMemoStats().Hits) })
	s.reg.Gauge("pcm.draw_memo.misses", func() float64 { return float64(pcm.DrawMemoStats().Misses) })
	s.hQueueWait = s.reg.Histogram("serve.job.queue_wait_ms", obs.LatencyBucketsMs)
	s.hSim = s.reg.Histogram("serve.job.sim_ms", obs.LatencyBucketsMs)
	s.hStore = s.reg.Histogram("serve.job.store_write_ms", obs.LatencyBucketsMs)
	for name, help := range map[string]string{
		"serve.jobs.accepted":      "jobs admitted to the queue (store misses only)",
		"serve.jobs.coalesced":     "requests coalesced onto an identical in-flight job",
		"serve.jobs.rejected":      "jobs rejected with 429 (queue full)",
		"serve.jobs.done":          "simulations completed successfully",
		"serve.jobs.failed":        "simulations that returned an error or panicked",
		"serve.jobs.panic_repeats": "requests for a spec that already panicked, failed without simulating",
		"serve.cache.hits":         "requests answered from the persistent result store",
		"serve.cache.misses":       "requests that required a fresh simulation",
		"serve.store.put_errors":   "persistence failures (results degraded to memory-only)",
		"serve.queue.depth":        "jobs waiting for a worker",
		"serve.queue.capacity":     "queue slots before 429 pushback",
		"serve.workers.busy":       "workers currently simulating",
		"serve.workers.total":      "worker pool size",
		"serve.jobs.records":       "job records retained for async polling",
		"serve.job.queue_wait_ms":  "accept-to-dequeue wait per job (ms)",
		"serve.job.sim_ms":         "simulation runtime per job (ms)",
		"serve.job.store_write_ms": "persistent store write latency per job (ms)",
		"pcm.draw_memo.entries":    "writes whose iteration draws the process keeps",
		"pcm.draw_memo.bytes":      "bytes the iteration draw memo holds",
		"pcm.draw_memo.hits":       "write profile builds that read their draws from the memo",
		"pcm.draw_memo.misses":     "write profile builds that drew their iterations",
	} {
		s.reg.SetHelp(name, help)
	}
	if s.store != nil {
		// Store.Len does its own IO and needs no lock.
		s.reg.Gauge("serve.store.entries", func() float64 { return float64(s.store.Len()) })
		s.reg.SetHelp("serve.store.entries", "results in the content-addressed store")
	}
}

// Registry exposes the server's metrics registry (e.g. for logging at exit).
// The cluster layer registers its ring/sweep series here so one /metrics
// scrape covers a node's serving and fleet state.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the content-addressed result store (nil when persistence is
// disabled). The cluster layer writes replicated results through it and the
// /v1/results endpoint reads from it.
func (s *Server) Store() *Store { return s.store }

// Logger exposes the server's structured logger so embedding layers (the
// cluster node) log through the same handler and level.
func (s *Server) Logger() *slog.Logger { return s.log }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// worker drains the queue until Drain closes it. Each dequeue stamps the
// job's lifecycle record (queue wait, simulation runtime, store-write
// latency) and logs start/finish with the job's correlation ID.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		start := time.Now()
		queueWait := start.Sub(j.acceptedAt)
		s.mu.Lock()
		j.state = StateRunning
		j.lc.QueueWaitMs = durMs(queueWait)
		s.busy++
		s.mu.Unlock()
		s.hQueueWait.Observe(durMs(queueWait))
		s.log.Debug("job start", "job", j.id, "key", j.key,
			"queue_wait_ms", durMs(queueWait))

		res, err := s.simulate(j)
		simDur := time.Since(start)
		s.hSim.Observe(durMs(simDur))
		var storeDur time.Duration
		if err == nil {
			res.Workload = j.wl
			if s.store != nil {
				putStart := time.Now()
				if perr := s.store.Put(j.key, res); perr != nil {
					// Persistence failures degrade to memory-only.
					s.cStoreErrors.Inc()
					s.log.Error("store put failed", "job", j.id, "key", j.key, "err", perr)
				}
				storeDur = time.Since(putStart)
				s.hStore.Observe(durMs(storeDur))
			}
		}

		s.mu.Lock()
		if err != nil {
			j.state, j.err = StateFailed, err
			s.cFailed.Inc()
			var perr panicError
			if errors.As(err, &perr) {
				s.rememberPanicLocked(j.key, perr)
			}
		} else {
			j.state, j.res = StateDone, res
			s.cDone.Inc()
		}
		j.lc.SimMs = durMs(simDur)
		j.lc.StoreWriteMs = durMs(storeDur)
		s.busy--
		delete(s.inflight, j.key)
		s.mu.Unlock()
		// Log before releasing waiters: a client that reads the log right
		// after its response must find the job's final line there.
		if err != nil {
			s.log.Warn("job failed", "job", j.id, "key", j.key,
				"sim_ms", durMs(simDur), "err", err)
		} else {
			s.log.Info("job done", "job", j.id, "key", j.key,
				"queue_wait_ms", durMs(queueWait), "sim_ms", durMs(simDur),
				"store_write_ms", durMs(storeDur))
		}
		close(j.done)
	}
}

// simulate runs one job's simulation. A panic fails only this job: the
// panic value becomes the job's error (a panicError) and its stack is
// logged with the job ID, so the worker and the daemon keep serving.
func (s *Server) simulate(j *job) (res system.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicError(fmt.Sprintf("simulation panicked: %v", p))
			s.log.Error("job panicked", "job", j.id, "key", j.key,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
		}
	}()
	return s.cfg.Simulate(j.cfg, j.wl)
}

// rememberPanicLocked records that the spec with this key panicked, forgetting
// the oldest record above maxJobRecords; mu held.
func (s *Server) rememberPanicLocked(key string, err panicError) {
	if _, ok := s.panicked[key]; ok {
		return
	}
	s.panicked[key] = err
	s.panickedOrder = append(s.panickedOrder, key)
	if len(s.panickedOrder) > maxJobRecords {
		delete(s.panicked, s.panickedOrder[0])
		s.panickedOrder = s.panickedOrder[1:]
	}
}

// durMs converts a duration to fractional milliseconds (the unit of every
// lifecycle histogram and log field).
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// formatRetryAfter renders the configured backoff as seconds for the
// Retry-After header — exactly, not rounded up to whole seconds, so clients
// configured with a sub-second RetryAfter back off for that long instead of
// a full second. Whole seconds stay integers (the RFC form); fractions are
// non-standard but our client parses them and third-party clients that
// don't simply fall back to their own default.
func formatRetryAfter(d time.Duration) string {
	if d%time.Second == 0 {
		return strconv.Itoa(int(d / time.Second))
	}
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// RunLocal pushes one job through the server's full pipeline — store
// lookup, singleflight dedupe, queue, worker pool, persistence — and waits
// for it as the sync POST /v1/jobs handler does, answering what that handler
// writes: the body, with a nil error for 200 or a *StatusError carrying any
// other code (422 failed simulation, 429 queue full with Config.RetryAfter
// in After, 503 draining, 500 store error). When ctx ends first it returns
// ctx.Err(); the job runs on for coalesced waiters and the store.
func (s *Server) RunLocal(ctx context.Context, cfg sim.Config, wl string) (JobStatus, error) {
	j, cached, serr := s.submit(cfg, wl)
	if serr != nil {
		return JobStatus{State: StateFailed, Error: serr.Msg}, serr
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		s.log.Debug("waiter left before completion", "job", j.id)
		return JobStatus{}, ctx.Err()
	}
	st := j.status() // done => fields are frozen, no lock needed
	st.Cached = cached
	if st.State == StateFailed {
		return st, &StatusError{Code: http.StatusUnprocessableEntity, Msg: st.Error}
	}
	return st, nil
}

// submit resolves a request to a job: a store hit returns an already-done
// synthetic job, a spec that already panicked an already-failed one with
// the same error, an identical in-flight job coalesces, and otherwise a new
// job is enqueued — or refused (job=nil) with the status to answer.
func (s *Server) submit(cfg sim.Config, wl string) (j *job, cached bool, err *StatusError) {
	key := system.Key(cfg, wl)

	// Store lookup happens outside mu (it is disk IO); the worst case of
	// racing a concurrent completion is a duplicate-free extra read.
	if s.store != nil {
		if res, ok, serr := s.store.Get(key); serr != nil {
			return nil, false, &StatusError{Code: http.StatusInternalServerError, Msg: serr.Error()}
		} else if ok {
			s.mu.Lock()
			s.cHits.Inc()
			j := s.newJobLocked(key, cfg, wl)
			j.state, j.res = StateDone, res
			j.lc.Outcome = OutcomeCacheHit
			s.mu.Unlock()
			close(j.done)
			s.log.Info("job cache hit", "job", j.id, "key", key, "workload", wl)
			return j, true, nil
		}
	}

	s.mu.Lock()
	if perr, ok := s.panicked[key]; ok {
		s.cPanicRepeats.Inc()
		j := s.newJobLocked(key, cfg, wl)
		j.state, j.err = StateFailed, perr
		j.lc.Outcome = OutcomeKnownPanic
		s.mu.Unlock()
		close(j.done)
		s.log.Info("job known to panic", "job", j.id, "key", key, "workload", wl)
		return j, true, nil
	}
	if s.draining {
		s.mu.Unlock()
		return nil, false, &StatusError{Code: http.StatusServiceUnavailable, Msg: "server is draining"}
	}
	if j, ok := s.inflight[key]; ok {
		s.cCoalesced.Inc()
		j.lc.Coalesced++
		s.mu.Unlock()
		s.log.Info("job coalesced", "job", j.id, "key", key, "workload", wl)
		return j, true, nil
	}
	j = s.newJobLocked(key, cfg, wl)
	select {
	case s.queue <- j:
	default:
		// Queue full: forget the job record and push back.
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.cRejected.Inc()
		s.mu.Unlock()
		s.log.Warn("job rejected", "key", key, "workload", wl, "reason", "queue full")
		return nil, false, &StatusError{Code: http.StatusTooManyRequests, Msg: "job queue is full", After: s.cfg.RetryAfter}
	}
	j.lc.Outcome = OutcomeFresh
	s.inflight[key] = j
	s.cAccepted.Inc()
	s.cMisses.Inc()
	depth := len(s.queue)
	s.mu.Unlock()
	s.log.Info("job accepted", "job", j.id, "key", key, "workload", wl,
		"queue_depth", depth)
	return j, false, nil
}

// newJobLocked mints a job record — including its correlation ID, which
// every log line, lifecycle record and API response carries — and registers
// it for polling; mu held.
func (s *Server) newJobLocked(key string, cfg sim.Config, wl string) *job {
	s.nextID++
	j := &job{
		id:         fmt.Sprintf("j%06d-%s", s.nextID, key[:8]),
		key:        key,
		cfg:        cfg,
		wl:         wl,
		acceptedAt: time.Now(),
		done:       make(chan struct{}),
		state:      StateQueued,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	return j
}

// evictLocked drops the oldest finished job records above maxJobRecords.
func (s *Server) evictLocked() {
	for len(s.jobs) > maxJobRecords && len(s.order) > 0 {
		evicted := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			if j.state == StateDone || j.state == StateFailed {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything live; let the map grow rather than lose jobs
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := map[string]any{
		"status":      "ok",
		"queue_depth": len(s.queue),
		"busy":        s.busy,
		"draining":    s.draining,
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, body)
}

// handleMetrics serves the registry as Prometheus text, whatever the
// request's ?format= or Accept header asks for.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	// Snapshots run under mu: gauge closures read mu-guarded fields.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are gone; nothing more to do than note it.
		s.log.Error("metrics dump failed", "err", err)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeJSON(w, http.StatusBadRequest, JobStatus{State: StateFailed, Error: "bad request: " + err.Error()})
		return
	}
	cfg, wl, err := spec.Resolve()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, JobStatus{State: StateFailed, Error: err.Error()})
		return
	}

	if r.URL.Query().Get("async") == "1" {
		j, cached, serr := s.submit(cfg, wl)
		if serr != nil {
			s.writeAnswer(w, JobStatus{State: StateFailed, Error: serr.Msg}, serr)
			return
		}
		s.mu.Lock()
		st := j.status()
		s.mu.Unlock()
		st.Cached = cached
		code := http.StatusAccepted
		if st.State == StateDone || st.State == StateFailed {
			code = http.StatusOK
		}
		s.writeJSON(w, code, st)
		return
	}

	st, err := s.RunLocal(r.Context(), cfg, wl)
	var serr *StatusError
	if err != nil && !errors.As(err, &serr) {
		return // the client went away
	}
	s.writeAnswer(w, st, serr)
}

// writeAnswer writes one attempt's answer: st with 200 when serr is nil,
// else with serr's code, and a 429 with its Retry-After.
func (s *Server) writeAnswer(w http.ResponseWriter, st JobStatus, serr *StatusError) {
	code := http.StatusOK
	if serr != nil {
		code = serr.Code
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", formatRetryAfter(serr.After))
		}
	}
	s.writeJSON(w, code, st)
}

// handleResult serves a stored result by its content key, from the LOCAL
// store only — no proxying, no simulation. It lets an operator (or a test)
// check that a key's result landed on each of its ring owners; a miss is a
// plain 404.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.store == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no persistent store on this node"})
		return
	}
	res, ok, err := s.store.Get(key)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if !ok {
		s.writeJSON(w, http.StatusNotFound, map[string]string{"error": "no result for key " + key})
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var st JobStatus
	if ok {
		st = j.status()
	}
	s.mu.Unlock()
	if !ok {
		s.writeJSON(w, http.StatusNotFound, JobStatus{ID: id, State: StateFailed, Error: "unknown job id"})
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// Drain stops accepting new jobs, lets the queue and in-flight simulations
// finish (every sync waiter gets its response), and returns when the pool is
// idle. Safe to call once; new submissions during the drain get 503.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	// Safe: every queue send is a non-blocking select made while holding
	// mu AND after checking draining, so no send can race this close.
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("encoding response failed", "err", err)
	}
}
