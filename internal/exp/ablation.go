package exp

import (
	"fmt"

	"fpb/internal/sim"
	"fpb/internal/stats"
)

// Ablations beyond the paper's figures, for the design choices DESIGN.md §5
// calls out. They use the same runner/normalization machinery as the paper
// experiments.

// ablation-gcpsize: the paper sizes the GCP equal to one LCP by default.
// How sensitive is FPB-GCP to that choice?
func runAblGCPSize(r *Runner) (*stats.Table, error) {
	gcpSized := func(label string, scale float64) column {
		return column{label: label, cfg: func(c *sim.Config) {
			gcp(sim.MapBIM, 0.70)(c)
			c.GCPMaxTokens = c.LCPTokens() * scale
		}}
	}
	return r.speedups("Ablation: GCP size (speedup vs DIMM+chip)", dimmChip,
		gcpSized("GCP-0.5xLCP", 0.5),
		gcpSized("GCP-1xLCP", 1.0),
		gcpSized("GCP-2xLCP", 2.0),
	)
}

// ablation-halfstripe: the paper's Section 2.1 cell-stripping alternative —
// each line across half the chips, accessed in two rounds. The paper
// rejects it because doubled array latency "will harm system performance";
// this ablation quantifies that choice under both the baseline and FPB.
func runAblHalfStripe(r *Runner) (*stats.Table, error) {
	half := func(base func(*sim.Config)) func(*sim.Config) {
		return func(c *sim.Config) {
			base(c)
			c.HalfStripe = true
		}
	}
	return r.speedups("Ablation: half-stripe layout (speedup vs full-stripe DIMM+chip)", dimmChip,
		column{label: "base-half", cfg: half(dimmChip)},
		column{label: "FPB-full", cfg: fpbFull},
		column{label: "FPB-half", cfg: half(fpbFull)},
	)
}

// ablation-mrtrigger: the paper triggers Multi-RESET greedily on admission
// shortfall (Section 6.2); the alternative splits every RESET
// unconditionally. Shortfall-triggered should win: it pays the extra RESET
// latency only when it buys admission.
func runAblMRTrigger(r *Runner) (*stats.Table, error) {
	return r.speedups("Ablation: Multi-RESET trigger (speedup vs DIMM+chip)", dimmChip,
		column{label: "MR-on-shortfall", cfg: fpbFull},
		column{label: "MR-always", cfg: func(c *sim.Config) {
			fpbFull(c)
			c.MultiResetAlways = true
		}},
	)
}

// ablation-setratio: IPM's reclamation factor is (C-1)/C where C is the
// RESET/SET power ratio. The paper's model uses C=2 (SET = RESET/2); this
// sweeps the ratio to show IPM's benefit grows with C. Each column is
// normalized to DIMM+chip at the same ratio: the device changed, so the
// baseline must change with it.
func runAblSetRatio(r *Runner) (*stats.Table, error) {
	ratios := []float64{0.25, 0.5, 0.75}
	labels := make([]string, len(ratios))
	for i, ratio := range ratios {
		labels[i] = fmt.Sprintf("IPM-set/reset=%.2f", ratio)
	}
	return sweepTable(r, "Ablation: SET power ratio (speedup vs same-ratio DIMM+chip)", labels,
		func(c *sim.Config, i int) { c.SetPowerRatio = ratios[i] })
}
