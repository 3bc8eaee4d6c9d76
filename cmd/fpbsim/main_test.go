package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fpb/internal/sim"
	"fpb/internal/system"
)

// TestPrintResultShowsUncompletedWrites runs `fpbsim -workload mcf_m
// -mapping ne -instr 2000 -scheme dimm+chip -wrq 48`, a run that ends with
// most of its writes still queued, and checks that the summary prints the
// completed writes next to the PCM writes made, and how many were not
// completed.
func TestPrintResultShowsUncompletedWrites(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeDIMMChip
	cfg.CellMapping = sim.MapNaive
	cfg.InstrPerCore = 2000
	cfg.WriteQueueEntries = 48
	res, err := system.RunWorkload(cfg, "mcf_m")
	if err != nil {
		t.Fatal(err)
	}
	done := uint64(res.Metrics["mem.writes.done"])
	if done >= res.Writes {
		t.Fatalf("%d of %d writes completed; the run no longer ends with writes queued", done, res.Writes)
	}
	var out bytes.Buffer
	printResult(&out, res, cfg, cfg.CellMapping, cfg.GCPEff, false, false)
	want := fmt.Sprintf("PCM writes          %d (WPKI %.3f), %d completed, %d not completed\n",
		res.Writes, res.MeasWPKI, done, res.Writes-done)
	if !strings.Contains(out.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, out.String())
	}
}

// TestPrintResultWithoutMetrics: a result that carries no metrics (none to
// count completions from) prints the PCM writes alone.
func TestPrintResultWithoutMetrics(t *testing.T) {
	var out bytes.Buffer
	printResult(&out, system.Result{Writes: 34}, sim.DefaultConfig(), sim.MapBIM, 0.7, false, false)
	if !strings.Contains(out.String(), "PCM writes          34 (WPKI 0.000)\n") {
		t.Errorf("summary:\n%s", out.String())
	}
}
