package system

import (
	"io"
	"reflect"
	"testing"

	"fpb/internal/obs"
	"fpb/internal/sim"
	"fpb/internal/workload"
)

// TestInstrumentationDoesNotChangeResults is the observability determinism
// guard: running the Fig. 18 configuration with tracing attached must
// produce a Result — every scalar and every Metrics entry — bit-identical to
// a bare run, with probes off and on.
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
		if !reflect.DeepEqual(base, res) {
			t.Errorf("probes=%v: instrumented run diverged from the bare run:\n  base: %+v\n  got:  %+v",
				probes, base, res)
		}
	}
}
