package system

import (
	"io"
	"maps"
	"reflect"
	"testing"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestInstrumentationDoesNotChangeResults is the observability determinism
// guard: running the Fig. 18 configuration with tracing attached must
// produce a Result — every scalar and every Metrics entry — bit-identical to
// a bare run. Probes are checked too, with one allowance: a probe sample is
// itself a simulation event, so it legitimately moves sim.events_run and
// nothing else.
func TestInstrumentationDoesNotChangeResults(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeGCPIPMMR
	cfg.InstrPerCore = 20_000
	const wlName = "mcf_m"

	base, err := RunWorkload(cfg, wlName)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.ByName(wlName, cfg.Cores)
	if err != nil {
		t.Fatal(err)
	}
	for _, probes := range []bool{false, true} {
		sys, err := Build(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		// Full-firehose tracer (every category except "engine") into a
		// discarded JSONL stream: emission must be observationally free.
		tr := obs.NewTracer(obs.NewJSONL(io.Discard))
		sys.EnableTrace(tr)
		if probes {
			sys.EnableProbes(10_000, io.Discard)
		}
		res := sys.Run()
		res.Workload = wlName
		sys.Release()
		if err := tr.Close(); err != nil {
			t.Fatalf("probes=%v: tracer: %v", probes, err)
		}
		want := base
		if probes {
			if res.Metrics["sim.events_run"] <= base.Metrics["sim.events_run"] {
				t.Error("probes added no events")
			}
			want.Metrics = maps.Clone(base.Metrics)
			want.Metrics["sim.events_run"] = res.Metrics["sim.events_run"]
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("probes=%v: instrumented run diverged from the bare run:\n  base: %+v\n  got:  %+v",
				probes, want, res)
		}
	}
}
