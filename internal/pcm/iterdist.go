package pcm

import (
	"math"

	"fpb/internal/sim"
)

// IterModel draws the total number of program-and-verify iterations a single
// MLC cell write needs, following the paper's two-phase model (Table 1,
// after Qureshi et al. HPCA'10 and Jiang et al. HPCA'12):
//
//	'00' — fixed 1 iteration  (the RESET pulse alone reaches full amorphous)
//	'11' — fixed 2 iterations (RESET + one SET)
//	'01' — minimum 2, mean Iter01Mean (default 8); two-phase mixture with
//	       fast-phase weight F1 = Iter01F1 (default 0.375)
//	'10' — minimum 2, mean Iter10Mean (default 6); fast-phase weight
//	       Iter10F1 (default 0.425)
//
// Iteration 1 is always the RESET pulse; iterations 2..T are SET pulses.
//
// The two phases are normal distributions (process variation spreads the
// programming staircase around its nominal length): the fast phase is
// centered fastShift iterations below the configured mean, and the slow
// phase's center is solved so the mixture hits the mean exactly. The
// resulting per-line iteration maximum concentrates a few iterations above
// the mean with only a handful of straggler cells — the property that makes
// write truncation (Jiang et al. HPCA'12) effective, and that matches
// "most cells finish in only a small number of iterations".
// Draws are clamped to [minIters, IterMax] (verify always succeeds by the
// cap, as in real bounded-retry P&V circuits).
type IterModel struct {
	bitsPerCell int
	iterMax     int
	mix01       phaseMix
	mix10       phaseMix
	fixed       [4]int // fixedIters by state
}

// phaseMix holds one state's mixture parameters.
type phaseMix struct {
	f1       float64 // fast-phase weight
	fastMean float64
	slowMean float64
}

const (
	// fastShift is how far below the configured mean the fast phase sits.
	fastShift = 3.0
	// fastSigma/slowSigma are the phases' spreads, in iterations.
	fastSigma = 1.5
	slowSigma = 2.5
	// minIters: intermediate states need the RESET plus at least one SET.
	minIters = 2
)

// NewIterModel builds an iteration model from the configuration.
func NewIterModel(cfg *sim.Config) *IterModel {
	m := &IterModel{
		bitsPerCell: cfg.BitsPerCell,
		iterMax:     cfg.IterMax,
		mix01:       solveMix(cfg.Iter01Mean, cfg.Iter01F1),
		mix10:       solveMix(cfg.Iter10Mean, cfg.Iter10F1),
		fixed:       [4]int{1, 0, 0, 2},
	}
	if cfg.BitsPerCell == 1 {
		m.fixed = [4]int{1, 1, 1, 1}
	}
	return m
}

// solveMix places the two phases so the mixture mean equals mean:
//
//	mean = F1*(mean-fastShift) + (1-F1)*slowMean
func solveMix(mean, f1 float64) phaseMix {
	fast := mean - fastShift
	if fast < minIters {
		fast = minIters
	}
	slow := (mean - f1*fast) / (1 - f1)
	if slow < fast {
		slow = fast
	}
	return phaseMix{f1: f1, fastMean: fast, slowMean: slow}
}

// Draw returns the total iterations (including the leading RESET) for one
// cell write targeting the given state, drawing from rng. For SLC
// (bitsPerCell 1) every write is a single pulse.
func (m *IterModel) Draw(rng *sim.RNG, target CellState) int {
	if t := m.fixedIters(target); t > 0 {
		return t
	}
	return m.draw(rng, target)
}

// fixedIters returns the iterations of a cell write that draws nothing: 1
// for '00' and for every SLC cell, 2 for '11'. It returns 0 for '01' and
// '10', whose count draw takes from the stream.
func (m *IterModel) fixedIters(target CellState) int {
	return m.fixed[target&3]
}

// draw draws the iterations of a '01' or '10' cell. It consumes exactly 13
// outputs of rng whichever phase it picks (one Bernoulli, then a normal
// from 12 uniforms), so the k-th such cell of a write reads the same
// outputs of the write's stream whatever the other cells are.
func (m *IterModel) draw(rng *sim.RNG, target CellState) int {
	mix := m.mix01
	if target == State10 {
		mix = m.mix10
	}
	var v float64
	if rng.Bernoulli(mix.f1) {
		v = rng.Normal(mix.fastMean, fastSigma)
	} else {
		v = rng.Normal(mix.slowMean, slowSigma)
	}
	t := int(math.Round(v))
	if t < minIters {
		t = minIters
	}
	if t > m.iterMax {
		t = m.iterMax
	}
	return t
}

// MaxIters reports the configured per-cell iteration cap.
func (m *IterModel) MaxIters() int { return m.iterMax }
