package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpb/internal/obs"
	"fpb/internal/serve"
	"fpb/internal/sim"
	"fpb/internal/system"
)

func TestRetryDelayJitterBounds(t *testing.T) {
	hint := 2 * time.Second
	for i := 0; i < 1000; i++ {
		d := RetryDelay(hint)
		if d < hint/2 || d > hint {
			t.Fatalf("RetryDelay(%v) = %v outside [%v, %v]", hint, d, hint/2, hint)
		}
	}
	// No hint: jitter over the default.
	for i := 0; i < 1000; i++ {
		d := RetryDelay(0)
		if d < defaultRetryDelay/2 || d > defaultRetryDelay {
			t.Fatalf("RetryDelay(0) = %v outside [%v, %v]", d, defaultRetryDelay/2, defaultRetryDelay)
		}
	}
}

func TestParseRetryAfterExact(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"1", time.Second},
		{"30", 30 * time.Second},
		{"0.25", 250 * time.Millisecond}, // fractional: our server's exact sub-second form
		{"garbage", 0},
		{"-5", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form.
	future := time.Now().Add(10 * time.Second).UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT")
	if got := parseRetryAfter(future); got < 8*time.Second || got > 10*time.Second {
		t.Errorf("parseRetryAfter(http-date) = %v, want ~10s", got)
	}
}

// TestServerAdvertisesExactRetryAfter checks the server emits a fractional
// Retry-After for sub-second configs and the client honors it: the Submit
// error's After matches the configured value exactly.
func TestServerAdvertisesExactRetryAfter(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s, err := serve.New(serve.Config{
		Workers: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond,
		Simulate: func(cfg sim.Config, wl string) (system.Result, error) {
			<-block
			return system.Result{Workload: wl}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	// Cleanup (not defer): it must run AFTER the deferred close(block)
	// releases the in-flight handlers ts.Close waits for.
	t.Cleanup(ts.Close)
	f, err := NewFleet([]string{ts.URL}, FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Fill the worker and the queue with async submissions (sync ones would
	// block this goroutine on the never-finishing fake simulation), then
	// confirm saturation via /healthz before probing for the 429.
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"workload":"mix_1","seed":%d}`, i+1)
		resp, err := http.Post(ts.URL+"/v1/jobs?async=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			QueueDepth int `json:"queue_depth"`
			Busy       int `json:"busy"`
		}
		jerr := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if jerr == nil && h.Busy == 1 && h.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never saturated (busy=%d depth=%d)", h.Busy, h.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = 99
	_, err = f.Submit(context.Background(), Normalize(ts.URL), serve.JobSpec{Workload: "mix_1", Config: &cfg})
	busy, ok := err.(*serve.StatusError)
	if !ok || busy.Code != http.StatusTooManyRequests {
		t.Fatalf("expected a 429 StatusError from saturated daemon, got %v", err)
	}
	if busy.After != 250*time.Millisecond {
		t.Fatalf("StatusError.After = %v, want exactly 250ms", busy.After)
	}
}

// fleetDaemons starts n daemons with deterministic fake simulations and
// returns their servers, test listeners, and a fleet over them.
func fleetDaemons(t *testing.T, n int, cfgf func(i int) serve.Config, fc FleetConfig) ([]*serve.Server, []*httptest.Server, *Fleet) {
	t.Helper()
	servers := make([]*serve.Server, n)
	tss := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := serve.New(cfgf(i))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Drain() })
		servers[i], tss[i], addrs[i] = s, ts, ts.URL
	}
	f, err := NewFleet(addrs, fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return servers, tss, f
}

// deterministicSim returns a Simulate func whose Result depends only on the
// job — never on which node ran it — mirroring the real engine's contract.
func deterministicSim(count *atomic.Int64) serve.SimulateFunc {
	return func(cfg sim.Config, wl string) (system.Result, error) {
		count.Add(1)
		return system.Result{Workload: wl, CPI: float64(cfg.Seed) * 2, Scheme: cfg.Scheme.String()}, nil
	}
}

func TestFleetRoutesToRingOwner(t *testing.T) {
	counts := make([]atomic.Int64, 3)
	_, tss, f := fleetDaemons(t, 3, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&counts[i])}
	}, FleetConfig{})

	// Every distinct job lands on its ring owner; re-running the same jobs
	// hits the same nodes (deterministic placement).
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		owner := f.Ring().Owner(system.Key(cfg, "mix_1"))
		res, err := f.Run(cfg, "mix_1")
		if err != nil {
			t.Fatal(err)
		}
		if res.CPI != float64(seed)*2 {
			t.Fatalf("seed %d: CPI = %v", seed, res.CPI)
		}
		// The owner must be one of the three started daemons.
		found := false
		for _, ts := range tss {
			if Normalize(ts.URL) == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("owner %q is not a fleet member", owner)
		}
	}
	total := counts[0].Load() + counts[1].Load() + counts[2].Load()
	if total != 8 {
		t.Fatalf("fleet simulated %d jobs, want 8", total)
	}
}

func TestFleetFailsOverToReplicaOnNodeDeath(t *testing.T) {
	counts := make([]atomic.Int64, 3)
	_, tss, f := fleetDaemons(t, 3, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&counts[i])}
	}, FleetConfig{Cooldown: time.Minute})
	reg := obs.NewRegistry()
	f.Instrument(reg)

	cfg := sim.DefaultConfig()
	cfg.Seed = 7
	owner := f.Ring().Owner(system.Key(cfg, "lbm_m"))

	// Kill the primary owner of this key.
	for _, ts := range tss {
		if Normalize(ts.URL) == owner {
			ts.CloseClientConnections()
			ts.Close()
		}
	}

	res, err := f.Run(cfg, "lbm_m")
	if err != nil {
		t.Fatalf("fleet did not fail over: %v", err)
	}
	if res.CPI != 14 {
		t.Fatalf("replica produced CPI %v, want 14", res.CPI)
	}
	if down := f.Tracker().Down(); len(down) != 1 || down[0] != owner {
		t.Fatalf("down = %v, want [%s]", down, owner)
	}
	if v, _ := reg.Value("client.fleet.failovers"); v < 1 {
		t.Fatalf("client.fleet.failovers = %v, want >= 1", v)
	}

	// Subsequent jobs owned by the dead node route straight to replicas
	// without re-dialing it (it is marked down).
	for seed := uint64(10); seed < 20; seed++ {
		c := sim.DefaultConfig()
		c.Seed = seed
		if _, err := f.Run(c, "lbm_m"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestFleetFailsOverOn429(t *testing.T) {
	// Node saturation: one daemon has a zero-size pool substitute — a
	// Simulate that blocks forever — and queue depth 1, so after the first
	// job it answers 429. The fleet must route around it immediately.
	block := make(chan struct{})
	defer close(block)
	var busyCount, okCount atomic.Int64
	servers := make([]*serve.Server, 2)
	addrs := make([]string, 2)
	var tss []*httptest.Server
	for i := 0; i < 2; i++ {
		var simf serve.SimulateFunc
		if i == 0 {
			simf = func(cfg sim.Config, wl string) (system.Result, error) {
				busyCount.Add(1)
				<-block
				return system.Result{}, nil
			}
		} else {
			simf = deterministicSim(&okCount)
		}
		s, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1, RetryAfter: 50 * time.Millisecond, Simulate: simf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close() })
		servers[i], addrs[i] = s, ts.URL
		tss = append(tss, ts)
	}
	_ = servers
	_ = tss
	f, err := NewFleet(addrs, FleetConfig{RetryBudget: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Saturate node 0 with async submissions (sync ones would block this
	// goroutine on the never-finishing simulation): one running + one
	// queued, confirmed via /healthz.
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"workload":"mix_1","seed":%d}`, 100+i)
		resp, err := http.Post(addrs[0]+"/v1/jobs?async=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(addrs[0] + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			QueueDepth int `json:"queue_depth"`
			Busy       int `json:"busy"`
		}
		jerr := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if jerr == nil && h.Busy == 1 && h.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 never saturated (busy=%d depth=%d)", h.Busy, h.QueueDepth)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Now run many jobs through the fleet; all whose owner is node 0 must
	// fail over to node 1 and complete.
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := sim.DefaultConfig()
		cfg.Seed = seed
		if _, err := f.Run(cfg, "mix_1"); err != nil {
			t.Fatalf("seed %d did not fail over from busy node: %v", seed, err)
		}
	}
	if okCount.Load() < 1 {
		t.Fatal("healthy node never simulated anything")
	}
	// The busy node must not be marked down — 429 is pushback, not death.
	if down := f.Tracker().Down(); len(down) != 0 {
		t.Fatalf("429 marked a node down: %v", down)
	}
}

func TestFleetTerminalErrorsDoNotFailOver(t *testing.T) {
	counts := make([]atomic.Int64, 2)
	_, _, f := fleetDaemons(t, 2, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&counts[i])}
	}, FleetConfig{})

	// An invalid spec is a 400 — terminal everywhere, no failover loop.
	_, err := f.Do(context.Background(), serve.JobSpec{})
	if err == nil {
		t.Fatal("empty spec should fail")
	}
	if counts[0].Load()+counts[1].Load() != 0 {
		t.Fatal("invalid spec reached a simulator")
	}
}

func TestFleetProbeReadmitsRecoveredNode(t *testing.T) {
	var count atomic.Int64
	_, tss, f := fleetDaemons(t, 2, func(i int) serve.Config {
		return serve.Config{Workers: 1, Simulate: deterministicSim(&count)}
	}, FleetConfig{Cooldown: time.Hour}) // cooldown too long to self-heal

	m := Normalize(tss[0].URL)
	f.tracker.MarkDown(m)
	if down := f.tracker.Down(); len(down) != 1 {
		t.Fatalf("down = %v", down)
	}
	// The node is actually healthy; one probe pass re-admits it.
	f.probeDown(context.Background())
	if down := f.tracker.Down(); len(down) != 0 {
		t.Fatalf("probe did not re-admit healthy node: %v", down)
	}
}

// TestFleetAllMembersDownFails: a fleet whose every member refuses
// connections fails after one last-resort pass instead of cycling dead
// members until the (default, 2-minute) retry budget runs out — for a
// single address exactly as for several.
func TestFleetAllMembersDownFails(t *testing.T) {
	for _, n := range []int{1, 3} {
		addrs := make([]string, n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		f, err := NewFleet(addrs, FleetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// The context only keeps a regression from hanging the suite.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cfg := sim.DefaultConfig()
		start := time.Now()
		_, err = f.Do(ctx, serve.JobSpec{Workload: "mcf_m", Config: &cfg})
		elapsed := time.Since(start)
		cancel()
		f.Close()
		if err == nil {
			t.Fatalf("%d dead members: Do succeeded", n)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%d dead members: Do took %v to fail (err %v), want < 2s", n, elapsed, err)
		}
	}
}
