package exp

import (
	"fpb/internal/pcm"
	"fpb/internal/sim"
	"fpb/internal/stats"
	"fpb/internal/workload"
)

// fig2Workloads matches the figure's x axis; "other" aggregates the
// remaining simulated benchmarks.
var fig2Workloads = []string{"bwa_m", "lbm_m", "mcf_m", "xal_m", "mum_m", "tig_m", "other"}

const fig2WritesPerSample = 300

// Figure 2: average cell changes per PCM line write for 2-bit MLC vs SLC at
// 256 B / 128 B / 64 B line sizes. This is a data census, not a timing
// simulation: each workload's value-mutation model is applied repeatedly to
// line content and the differential-write cell changes counted.
func runFig2(r *Runner) (*stats.Table, error) {
	t := stats.NewTable("Figure 2: average cell changes per line write",
		"workload", "256B-mlc", "256B-slc", "128B-mlc", "128B-slc", "64B-mlc", "64B-slc")
	lineSizes := []int{256, 128, 64}

	sample := func(names []string) ([]float64, error) {
		cells := make([]float64, 0, 6)
		for _, lineB := range lineSizes {
			var mlc, slc stats.Summary
			for _, name := range names {
				wl, err := workload.ByName(name, 8)
				if err != nil {
					return nil, err
				}
				// One mutator per distinct profile in the mix.
				seen := map[string]bool{}
				for i, prof := range wl.Cores {
					if seen[prof.Name] {
						continue
					}
					seen[prof.Name] = true
					// Seed per benchmark so same-class programs
					// (e.g. the FP trio) still produce distinct
					// draws, as distinct programs would.
					seed := uint64(1000 + i)
					for _, ch := range prof.Name {
						seed = seed*131 + uint64(ch)
					}
					mut := workload.NewMutator(prof.Value, sim.NewRNG(seed))
					old := workload.BaselineContent(seed*4096, lineB)
					for w := 0; w < fig2WritesPerSample; w++ {
						next := mut.Next(old, lineB)
						mlc.Add(float64(pcm.CountChangedCells(old, next, 2)))
						slc.Add(float64(pcm.CountChangedCells(old, next, 1)))
						old = next
					}
				}
			}
			cells = append(cells, mlc.Mean(), slc.Mean())
		}
		return cells, nil
	}

	var perCol [][]float64
	for _, name := range fig2Workloads {
		names := []string{name}
		if name == "other" {
			names = []string{"ast_m", "les_m", "qso_m", "cop_m", "mix_1", "mix_2", "mix_3"}
		}
		row, err := sample(names)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, row...)
		for i, v := range row {
			if i >= len(perCol) {
				perCol = append(perCol, nil)
			}
			perCol[i] = append(perCol[i], v)
		}
	}
	g := make([]float64, len(perCol))
	for i := range perCol {
		g[i] = stats.GeoMean(perCol[i])
	}
	t.AddRow("gmean", g...)
	return t, nil
}
