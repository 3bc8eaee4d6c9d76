package exp

import (
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// Figure 4: performance of simple power-management heuristics under MLC
// PCM power restrictions, normalized to Ideal (no power limit). The paper's
// headline motivation: DIMM-only loses 33%, DIMM+chip 51%; PWL, bigger
// local pumps, and out-of-order write scheduling barely help (except
// 2xlocal). The base config is DIMM+chip, so each heuristic column only
// sets its own knob.
func runFig4(r *Runner) (*stats.Table, error) {
	return r.speedups("Figure 4: speedup vs Ideal (no power limit)", ideal,
		column{label: "Ideal", cfg: ideal},
		column{label: "DIMM-only", cfg: scheme(sim.SchemeDIMMOnly)},
		column{label: "DIMM+chip", cfg: dimmChip},
		column{label: "PWL", cfg: func(c *sim.Config) { c.PWL = true }},
		column{label: "1.5xlocal", cfg: func(c *sim.Config) { c.LocalScale = 1.5 }},
		column{label: "2xlocal", cfg: func(c *sim.Config) { c.LocalScale = 2.0 }},
		column{label: "sche24", cfg: func(c *sim.Config) { c.WriteQueueSched = 24 }},
		column{label: "sche48", cfg: func(c *sim.Config) {
			c.WriteQueueEntries = 48
			c.WriteQueueSched = 48
		}},
		column{label: "sche96", cfg: func(c *sim.Config) {
			c.WriteQueueEntries = 96
			c.WriteQueueSched = 96
		}},
	)
}

// Figure 10: percentage of execution cycles spent in write bursts for the
// baseline (DIMM+chip). The paper reports an average of 52.2%.
func runFig10(r *Runner) (*stats.Table, error) {
	return r.tabulate("Figure 10: fraction of execution cycles in write burst",
		[]column{{label: "burst-fraction", cfg: dimmChip}},
		func(_, res system.Result) float64 { return res.BurstFraction }, "mean", meanOf)
}
