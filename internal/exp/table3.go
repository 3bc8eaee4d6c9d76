package exp

import (
	"fmt"

	"fpb/internal/power"
	"fpb/internal/sim"
	"fpb/internal/stats"
)

// Table 3: charge pump area overhead, measured by input-referred power
// tokens relative to the baseline DIMM (8 chips × 70 tokens = 560). The
// GCP's size is the maximum output it was ever asked for (Figure 13's
// data), divided by its efficiency.
func runTable3(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Table 3: charge pump overhead (input-referred power tokens)",
		"scheme", "tokens", "overhead")
	t.AddStringRow("Baseline (8 chips)", fmt.Sprintf("%.0f", power.BaselineChipTokens*8), "-")
	t.AddStringRow("2xLocal (8 chips)", fmt.Sprintf("%.0f", power.BaselineChipTokens*16), "100.0%")

	effs := []float64{0.95, 0.70}
	var cols []column
	for _, m := range []sim.Mapping{sim.MapNaive, sim.MapVIM, sim.MapBIM} {
		for _, eff := range effs {
			cols = append(cols, gcpColumn(m, eff))
		}
	}
	vals, err := r.measure(cols, r.opt.Workloads, maxGCPSegment)
	if err != nil {
		return nil, err
	}
	for i, c := range cols {
		// Size the pump by the largest single-write GCP demand seen
		// across workloads (Figure 13's measurement).
		maxTokens, eff := maxOf(vals[i]), effs[i%len(effs)]
		t.AddStringRow(c.label,
			fmt.Sprintf("%.0f/%.2f = %.0f", maxTokens, eff, maxTokens/eff),
			fmt.Sprintf("%.1f%%", power.PumpOverhead(maxTokens, eff, r.BaseConfig().Chips)*100),
		)
	}
	return t, nil
}
