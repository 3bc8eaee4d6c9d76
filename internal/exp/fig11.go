package exp

import (
	"fmt"

	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/system"
)

// gcp is an FPB-GCP configuration.
func gcp(mapping sim.Mapping, eff float64) func(*sim.Config) {
	return func(c *sim.Config) {
		c.Scheme = sim.SchemeGCP
		c.CellMapping = mapping
		c.GCPEff = eff
	}
}

// gcpColumn is an FPB-GCP column labeled by its mapping and efficiency.
func gcpColumn(mapping sim.Mapping, eff float64) column {
	return column{label: fmt.Sprintf("GCP-%v-%.2f", mapping, eff), cfg: gcp(mapping, eff)}
}

// Figure 11: FPB-GCP speedup over DIMM+chip for different GCP power
// efficiencies, naive mapping. The paper: 0.95 → +36.3% (matching
// DIMM-only), 0.70 → +23.7%, 0.50 → +2.8%.
func runFig11(r *Runner) (*stats.Table, error) {
	return r.speedups("Figure 11: speedup vs DIMM+chip for GCP power efficiencies", dimmChip,
		column{label: "DIMM-only", cfg: scheme(sim.SchemeDIMMOnly)},
		gcpColumn(sim.MapNaive, 0.95),
		gcpColumn(sim.MapNaive, 0.70),
		gcpColumn(sim.MapNaive, 0.50),
	)
}

// Figure 12: cell-mapping optimizations under the GCP. VIM/BIM at 70%
// efficiency come within 2% / 1.4% of DIMM-only and stay effective at 50%.
func runFig12(r *Runner) (*stats.Table, error) {
	return r.speedups("Figure 12: speedup vs DIMM+chip for cell mappings", dimmChip,
		gcpColumn(sim.MapNaive, 0.70),
		gcpColumn(sim.MapVIM, 0.70),
		gcpColumn(sim.MapVIM, 0.50),
		gcpColumn(sim.MapBIM, 0.70),
		gcpColumn(sim.MapBIM, 0.50),
	)
}

// fig13Columns is the mapping × efficiency grid shared by Figures 13/14.
func fig13Columns() []column {
	return []column{
		gcpColumn(sim.MapNaive, 0.70),
		gcpColumn(sim.MapNaive, 0.50),
		gcpColumn(sim.MapVIM, 0.70),
		gcpColumn(sim.MapVIM, 0.50),
		gcpColumn(sim.MapBIM, 0.70),
		gcpColumn(sim.MapBIM, 0.50),
	}
}

// Figure 13: maximum power tokens concurrently requested from the GCP —
// this sizes the pump (Table 3). Paper maxima: NE 66, VIM 16, BIM 28.
//
// The pump-sizing criterion is the largest single chip segment the GCP ever
// powered: the hot-chip shortfall the cell mapping leaves behind, which a
// smaller pump could not have covered.
func runFig13(r *Runner) (*stats.Table, error) {
	return r.tabulate("Figure 13: maximum GCP tokens requested for one chip segment",
		fig13Columns(), maxGCPSegment, "max", maxOf)
}

// maxGCPSegment is the cell of Fig. 13 and Table 3.
func maxGCPSegment(_, res system.Result) float64 { return res.MaxGCPSegment }

// Figure 14: average GCP tokens requested per line write — proportional to
// the energy wasted in the inefficient global pump. VIM/BIM cut waste by
// 78.5%/64.4% vs NE at 0.7 efficiency.
func runFig14(r *Runner) (*stats.Table, error) {
	return r.tabulate("Figure 14: average GCP output tokens requested per line write",
		fig13Columns(), func(_, res system.Result) float64 { return res.AvgGCPTokens }, "avg", meanOf)
}

// Figure 15: BIM keeps the GCP effective as its efficiency decays toward
// 10%, shown for astar, mcf and mix_1: one row per efficiency, one column
// per workload.
func runFig15(r *Runner) (*stats.Table, error) {
	effs := []float64{0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	wls := []string{"ast_m", "mcf_m", "mix_1"}
	cols := make([]column, len(effs))
	for i, e := range effs {
		cols[i] = column{cfg: gcp(sim.MapBIM, e), norm: dimmChip}
	}
	vals, err := r.measure(cols, wls, system.Speedup)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 15: GCP-BIM speedup vs DIMM+chip as efficiency decreases",
		append([]string{"efficiency"}, wls...)...)
	for i, e := range effs {
		t.AddRow(fmt.Sprintf("%.1f", e), vals[i]...)
	}
	return t, nil
}
