package exp

import (
	"fmt"

	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// sweepTable runs the Section 6.4 design-space pattern: for each parameter
// value X, FPB and DIMM+chip are both run at X and the speedup is FPB(X) /
// DIMM+chip(X) — "each bar is normalized to DIMM+chip that has the same X
// value".
func sweepTable(r *Runner, title string, labels []string, apply func(*sim.Config, int)) (*stats.Table, error) {
	cols := make([]column, len(labels))
	for i, label := range labels {
		cols[i] = column{
			label: label,
			cfg:   func(c *sim.Config) { fpbFull(c); apply(c, i) },
			norm:  func(c *sim.Config) { dimmChip(c); apply(c, i) },
		}
	}
	return r.tabulate(title, cols, system.Speedup, "gmean", stats.GeoMean)
}

// Figure 19: FPB speedup for 64/128/256 B memory line sizes. Paper:
// +41.3%, +61.8%, +75.6%.
func runFig19(r *Runner) (*stats.Table, error) {
	sizes := []int{64, 128, 256}
	return sweepTable(r, "Figure 19: FPB speedup vs DIMM+chip per line size",
		[]string{"64B", "128B", "256B"},
		func(c *sim.Config, i int) { c.L3LineB = sizes[i] })
}

// Figure 20: last-level cache capacity sensitivity. Paper: +39.9% (8MB),
// +62.1% (16MB), +75.6% (32MB), +23.4% (128MB).
func runFig20(r *Runner) (*stats.Table, error) {
	sizes := []int{8, 16, 32, 128}
	return sweepTable(r, "Figure 20: FPB speedup vs DIMM+chip per LLC capacity",
		[]string{"8M", "16M", "32M", "128M"},
		func(c *sim.Config, i int) { c.L3SizeMB = sizes[i] })
}

// Figure 21: write queue size sensitivity. Paper: +75.6%/+85.2%/+88.1% for
// 24/48/96 entries, saturating at 48.
func runFig21(r *Runner) (*stats.Table, error) {
	sizes := []int{24, 48, 96}
	return sweepTable(r, "Figure 21: FPB speedup vs DIMM+chip per write queue size",
		[]string{"24", "48", "96"},
		func(c *sim.Config, i int) { c.WriteQueueEntries = sizes[i] })
}

// Figure 22: power token budget sensitivity (±1/8 of the DIMM budget —
// one LCP's worth of area). Paper: FPB does better under tighter budgets.
func runFig22(r *Runner) (*stats.Table, error) {
	tokens := []float64{466, 532, 598}
	labels := make([]string, len(tokens))
	for i, tk := range tokens {
		labels[i] = fmt.Sprintf("%.0f", tk)
	}
	return sweepTable(r, "Figure 22: FPB speedup vs DIMM+chip per token budget",
		labels,
		func(c *sim.Config, i int) { c.DIMMTokens = tokens[i] })
}

// Figure 23: FPB combined with write cancellation, write pausing and write
// truncation (320-entry queues: 40 per bank). Paper: FPB+WC+WP+WT reaches
// +175.8% over DIMM+chip, a 57% gain over FPB alone.
func runFig23(r *Runner) (*stats.Table, error) {
	// fpbWith is FPB with 320-entry queues, write cancellation and, at
	// levels 2 and 3, write pausing and then write truncation.
	fpbWith := func(level int) func(*sim.Config) {
		return func(c *sim.Config) {
			fpbFull(c)
			c.ReadQueueEntries = 320
			c.WriteQueueEntries = 320
			c.WriteCancellation = true
			c.WritePausing = level >= 2
			c.WriteTruncation = level >= 3
		}
	}
	return r.speedups("Figure 23: FPB with read-latency schemes, speedup vs DIMM+chip", dimmChip,
		column{label: "FPB", cfg: fpbFull},
		column{label: "FPB+WC", cfg: fpbWith(1)},
		column{label: "FPB+WC+WP", cfg: fpbWith(2)},
		column{label: "FPB+WC+WP+WT", cfg: fpbWith(3)},
	)
}
