package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fpb/internal/cluster/ring"
	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

// FleetConfig tunes a Fleet client.
type FleetConfig struct {
	// VNodes is the ring's virtual-node count per member (default
	// ring.DefaultVirtualNodes). Every fleet participant must agree on it.
	VNodes int
	// Cooldown is how long a node that failed a request is skipped before
	// routing optimistically retries it (default ring.DefaultCooldown).
	Cooldown time.Duration
	// ProbeInterval enables a background health prober that re-admits
	// recovered nodes early (and detects silently dead ones). 0 disables
	// it; failure-driven marking plus the cooldown still work.
	ProbeInterval time.Duration
	// RetryBudget bounds how long a walk keeps cycling members that push
	// back with 429 (default 2 minutes; the queue of a busy daemon drains
	// at simulation granularity, so waits are long but bounded).
	RetryBudget time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.VNodes <= 0 {
		c.VNodes = ring.DefaultVirtualNodes
	}
	if c.Cooldown <= 0 {
		c.Cooldown = ring.DefaultCooldown
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 2 * time.Minute
	}
	return c
}

// Fleet is the client for one fpbd daemon or a consistent-hash cluster of
// them. Each job routes to the ring owner of its system.Key — the node whose
// content-addressed store is hot for that key — and walks the key's
// successor list when the owner is down, draining, or pushing back with
// 429. Placement is deterministic (same ring as the daemons themselves), so
// every client sends the same key to the same node and the fleet's caches
// stay partitioned instead of duplicated. A single address is simply a
// one-member ring.
//
// Health state is failure-driven (a node that errors is skipped for
// Cooldown) and, optionally, probe-driven: with ProbeInterval set, a
// background goroutine re-checks /healthz of every down node so recovered
// nodes rejoin the routing table before their cooldown expires. Close stops
// the prober.
type Fleet struct {
	cfg     FleetConfig
	ring    *ring.Ring
	tracker *ring.Tracker
	hc      *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	// Telemetry (nil-safe until Instrument).
	cRequests  *obs.Counter
	cRetry429  *obs.Counter
	cErrors    *obs.Counter
	cFailovers *obs.Counter
	cProbes    *obs.Counter
	hRequestMs *obs.Histogram
}

// NewFleet builds a fleet client over the node addresses (each "host:port"
// or a full URL; duplicates collapse after normalization).
func NewFleet(addrs []string, cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	members := make([]string, len(addrs))
	for i, a := range addrs {
		members[i] = Normalize(a)
	}
	f := &Fleet{
		cfg:     cfg,
		ring:    ring.New(cfg.VNodes, members...),
		tracker: ring.NewTracker(cfg.Cooldown),
		hc:      &http.Client{},
		stop:    make(chan struct{}),
	}
	if f.ring.Len() == 0 {
		return nil, fmt.Errorf("client: fleet: no node addresses")
	}
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// Ring exposes the fleet's placement ring (read-only).
func (f *Fleet) Ring() *ring.Ring { return f.ring }

// Tracker exposes the fleet's member health: the walk marks members down
// on failure and the prober re-admits them.
func (f *Fleet) Tracker() *ring.Tracker { return f.tracker }

// Instrument registers the fleet's telemetry into reg: request, 429 and
// error counts, end-to-end request latency, plus failover and health
// series.
func (f *Fleet) Instrument(reg *obs.Registry) {
	f.cRequests = reg.Counter("client.requests")
	f.cRetry429 = reg.Counter("client.retries_429")
	f.cErrors = reg.Counter("client.errors")
	f.hRequestMs = reg.Histogram("client.request_ms", obs.LatencyBucketsMs)
	f.cFailovers = reg.Counter("client.fleet.failovers")
	f.cProbes = reg.Counter("client.fleet.probes")
	reg.Gauge("client.fleet.nodes", func() float64 { return float64(f.ring.Len()) })
	reg.Gauge("client.fleet.nodes_down", func() float64 { return float64(len(f.tracker.Down())) })
	for name, help := range map[string]string{
		"client.requests":         "jobs submitted to the fleet",
		"client.retries_429":      "429 pushback responses observed across replicas",
		"client.errors":           "job submissions that failed terminally",
		"client.request_ms":       "end-to-end fleet job latency incl. failover (ms)",
		"client.fleet.failovers":  "requests moved to a successor replica after a node failure",
		"client.fleet.probes":     "background health probes issued",
		"client.fleet.nodes":      "configured fleet members",
		"client.fleet.nodes_down": "members currently believed down",
	} {
		reg.SetHelp(name, help)
	}
}

// Close stops the background prober (if any) and waits for it.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// probeLoop re-probes down members every ProbeInterval so recovered nodes
// rejoin routing promptly. Alive members are left alone — regular traffic
// is their health check.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeInterval)
			f.probeDown(ctx)
			cancel()
		}
	}
}

// probeDown health-checks every member currently marked down, re-admitting
// the ones that answer.
func (f *Fleet) probeDown(ctx context.Context) {
	for _, m := range f.tracker.Down() {
		f.cProbes.Inc()
		if err := f.health(ctx, m); err == nil {
			f.tracker.MarkAlive(m)
		} else {
			f.tracker.MarkDown(m) // refresh the cooldown
		}
	}
}

// Attempt tries a job once on one member. Its error classifies the answer
// for the walk: a *serve.StatusError with code 429 is pushback, one with
// any other code below 500 is terminal, and anything else means the member
// looks dead.
type Attempt func(ctx context.Context, member string) (serve.JobStatus, error)

// WalkStats reports what one walk did.
type WalkStats struct {
	Member    string // the member that answered ("" when the walk failed)
	Attempts  int    // attempts made
	Busy      int    // 429 pushback answers
	Failovers int    // moves to a successor after a member failed
}

// Walk runs attempt over the replica preference order of key until one
// member answers. Pass 0 skips members believed down; later passes try
// every member. A 429 moves on at once without marking the node down, a
// 4xx is terminal (a bad spec or a failed simulation fails identically on
// every replica), and a transport error, 5xx or draining node marks the
// member down and fails over. Between passes the walk sleeps the smallest
// advertised Retry-After (jittered; the default delay when none was
// advertised) and cycles until ctx or the retry budget runs out; a pass
// after the first with no pushback ends the walk, because nothing
// reachable is left to wait for.
func (f *Fleet) Walk(ctx context.Context, key string, attempt Attempt) (serve.JobStatus, WalkStats, error) {
	order := f.ring.Owners(key, 0) // full deterministic failover order
	deadline := time.Now().Add(f.cfg.RetryBudget)
	var ws WalkStats
	var lastErr error
	for pass := 0; ; pass++ {
		var busyWait time.Duration
		sawBusy := false
		for i, m := range order {
			if err := ctx.Err(); err != nil {
				return serve.JobStatus{}, ws, err
			}
			if pass == 0 && !f.tracker.Alive(m) {
				continue
			}
			ws.Attempts++
			st, err := attempt(ctx, m)
			if err == nil {
				ws.Member = m
				return st, ws, nil
			}
			if ctx.Err() != nil {
				// The caller gave up; the member is not to blame.
				return serve.JobStatus{}, ws, ctx.Err()
			}
			lastErr = err
			var se *serve.StatusError
			switch {
			case !errors.As(err, &se) || se.Code >= 500:
				f.tracker.MarkDown(m)
				if i < len(order)-1 {
					ws.Failovers++
				}
			case se.Code == http.StatusTooManyRequests:
				ws.Busy++
				sawBusy = true
				if se.After > 0 && (busyWait == 0 || se.After < busyWait) {
					busyWait = se.After
				}
			default:
				return serve.JobStatus{}, ws, err
			}
		}
		if pass > 0 && !sawBusy {
			return serve.JobStatus{}, ws, fmt.Errorf("client: no reachable member: %w", lastErr)
		}
		if time.Now().After(deadline) {
			return serve.JobStatus{}, ws, fmt.Errorf("client: retry budget exhausted: %w", lastErr)
		}
		select {
		case <-time.After(RetryDelay(busyWait)):
		case <-ctx.Done():
			return serve.JobStatus{}, ws, ctx.Err()
		}
	}
}

// Do submits one job to the fleet over HTTP and returns its final status,
// walking the key's replicas as Walk describes.
func (f *Fleet) Do(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	cfg, wl, err := spec.Resolve()
	if err != nil {
		return serve.JobStatus{}, err
	}
	f.cRequests.Inc()
	start := time.Now()
	st, ws, err := f.Walk(ctx, system.Key(cfg, wl), func(ctx context.Context, m string) (serve.JobStatus, error) {
		return f.Submit(ctx, m, spec)
	})
	f.cRetry429.Add(uint64(ws.Busy))
	f.cFailovers.Add(uint64(ws.Failovers))
	// Latency includes retry waits: it is the caller-observed cost of the
	// remote call, not the server's service time.
	f.hRequestMs.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
	if err != nil {
		f.cErrors.Inc()
	}
	return st, err
}

// Run simulates one (config, workload) pair on the fleet; its signature
// matches exp.Backend, so `fpbexp -remote host1,host2,host3` plugs a whole
// cluster under an experiment Runner.
func (f *Fleet) Run(cfg sim.Config, wl string) (system.Result, error) {
	st, err := f.Do(context.Background(), serve.JobSpec{Workload: wl, Config: &cfg})
	if err != nil {
		return system.Result{}, err
	}
	if st.State != serve.StateDone || st.Result == nil {
		return system.Result{}, fmt.Errorf("client: fleet job %s: state %s: %s", st.ID, st.State, st.Error)
	}
	return *st.Result, nil
}
