package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Scheme selects which power-budgeting policy governs MLC PCM writes.
// These correspond one-to-one to the schemes evaluated in the paper.
type Scheme int

const (
	// SchemeIdeal has an unlimited power budget: a write issues whenever
	// its bank is free.
	SchemeIdeal Scheme = iota
	// SchemeDIMMOnly enforces only the DIMM power budget using the
	// per-write heuristic of Hay et al. (MICRO 2011).
	SchemeDIMMOnly
	// SchemeDIMMChip enforces both DIMM and per-chip budgets with the
	// same per-write heuristic. This is the paper's normalization
	// baseline for Sections 6.1 onward.
	SchemeDIMMChip
	// SchemeGCP adds the global charge pump on top of DIMM+chip.
	SchemeGCP
	// SchemeGCPIPM adds iteration power management on top of GCP.
	SchemeGCPIPM
	// SchemeGCPIPMMR adds Multi-RESET on top of GCP+IPM; this is the
	// full "FPB" configuration.
	SchemeGCPIPMMR
	// SchemeIPM is IPM without a GCP (DIMM+chip budgets enforced).
	SchemeIPM
	// SchemeIPMMR is IPM+Multi-RESET without a GCP.
	SchemeIPMMR
)

var schemeNames = map[Scheme]string{
	SchemeIdeal:    "Ideal",
	SchemeDIMMOnly: "DIMM-only",
	SchemeDIMMChip: "DIMM+chip",
	SchemeGCP:      "GCP",
	SchemeGCPIPM:   "GCP+IPM",
	SchemeGCPIPMMR: "GCP+IPM+MR",
	SchemeIPM:      "IPM",
	SchemeIPMMR:    "IPM+MR",
}

func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// schemeAliases maps every accepted lowercase spelling to a scheme. These are
// the names the CLIs and the fpbd job API accept; "fpb" is shorthand for the
// full GCP+IPM+MR configuration.
var schemeAliases = map[string]Scheme{
	"ideal":      SchemeIdeal,
	"dimm-only":  SchemeDIMMOnly,
	"dimm+chip":  SchemeDIMMChip,
	"gcp":        SchemeGCP,
	"gcp+ipm":    SchemeGCPIPM,
	"gcp+ipm+mr": SchemeGCPIPMMR,
	"fpb":        SchemeGCPIPMMR,
	"ipm":        SchemeIPM,
	"ipm+mr":     SchemeIPMMR,
}

// ParseScheme resolves a scheme name (case-insensitive; see SchemeNames).
func ParseScheme(name string) (Scheme, error) {
	if s, ok := schemeAliases[strings.ToLower(name)]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames lists every accepted scheme spelling, sorted.
func SchemeNames() []string {
	names := make([]string, 0, len(schemeAliases))
	for n := range schemeAliases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Mapping selects the static cell-to-chip mapping (paper Section 4.3).
type Mapping int

const (
	// MapNaive stores consecutive cells within one chip (Fig. 9b).
	MapNaive Mapping = iota
	// MapVIM is Vertical Interleaving Mapping: chip = cell mod 8 (Eq. 2).
	MapVIM
	// MapBIM is Braided Interleaving Mapping:
	// chip = (cell - cell/16) mod 8 (Eq. 3).
	MapBIM
)

func (m Mapping) String() string {
	switch m {
	case MapNaive:
		return "NE"
	case MapVIM:
		return "VIM"
	case MapBIM:
		return "BIM"
	}
	return fmt.Sprintf("Mapping(%d)", int(m))
}

// mappingAliases maps accepted lowercase mapping names.
var mappingAliases = map[string]Mapping{
	"ne":  MapNaive,
	"vim": MapVIM,
	"bim": MapBIM,
}

// ParseMapping resolves a cell-mapping name (case-insensitive; see
// MappingNames).
func ParseMapping(name string) (Mapping, error) {
	if m, ok := mappingAliases[strings.ToLower(name)]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown mapping %q (valid: %s)", name, strings.Join(MappingNames(), ", "))
}

// MappingNames lists every accepted mapping spelling, sorted.
func MappingNames() []string {
	names := make([]string, 0, len(mappingAliases))
	for n := range mappingAliases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Config holds every tunable of the simulated system. DefaultConfig
// reproduces Table 1 of the paper; experiments override individual fields.
type Config struct {
	// --- CPU ---
	Cores        int // number of in-order cores
	CPUFreqGHz   float64
	InstrPerCore uint64 // instruction budget per core for a run

	// --- L1 (private, per core) ---
	L1SizeKB    int
	L1LineB     int
	L1Ways      int
	L1HitCycles Cycle

	// --- L2 (private, per core) ---
	L2SizeKB    int
	L2LineB     int
	L2Ways      int
	L2HitCycles Cycle // tag+data
	CPUToL2     Cycle

	// --- L3 DRAM cache (private, off-chip, per core) ---
	L3SizeMB    int
	L3LineB     int // equals the PCM memory line size
	L3Ways      int
	L3HitCycles Cycle
	CPUToL3     Cycle

	// --- Memory controller ---
	ReadQueueEntries  int
	WriteQueueEntries int
	MCToBank          Cycle

	// --- PCM device ---
	Banks         int
	Chips         int
	PCMReadCycles Cycle
	ResetCycles   Cycle
	SetCycles     Cycle
	BitsPerCell   int // 2 for MLC, 1 for SLC
	// MLC write model (2-bit): per-target-state iteration statistics.
	// States '00' and '11' take fixed 1 and 2 iterations; '01' and '10'
	// are two-phase distributions parameterized below.
	Iter01Mean float64
	Iter01F1   float64 // fraction of cells in the fast phase
	Iter10Mean float64
	Iter10F1   float64
	IterMax    int // hard cap on SET iterations (verify always succeeds by then)

	// --- Power ---
	DIMMTokens    float64 // PT_DIMM: simultaneous cell-RESETs the DIMM supports
	LCPEff        float64 // E_LCP, local charge pump efficiency
	GCPEff        float64 // E_GCP, global charge pump efficiency
	GCPMaxTokens  float64 // max GCP output; 0 means "one LCP" (paper default)
	SetPowerRatio float64 // SET power / RESET power (paper Fig. 5 uses 1/2)
	LocalScale    float64 // chip budget multiplier (1.5xlocal / 2xlocal studies)

	// --- Scheme ---
	Scheme          Scheme
	CellMapping     Mapping
	MultiResetSplit int // m: max RESET sub-iterations (0 or 1 disables)
	// MultiResetAlways splits every RESET into MultiResetSplit
	// sub-iterations unconditionally, instead of the paper's greedy
	// split-on-shortfall trigger. Ablation only: it trades unconditional
	// peak-power reduction for unconditional latency.
	MultiResetAlways bool
	// HalfStripe selects the paper's Section 2.1 design alternative:
	// each line's cells stripe across half the chips (alternating halves
	// by line index) and the array is accessed in two rounds, doubling
	// read latency and write duration while halving per-round power
	// demand. The paper's baseline (full stripe, one round) is default.
	HalfStripe     bool
	PWL            bool // overhead-free intra-line wear leveling (PWL bar)
	PWLShiftWrites int  // rotate line offset every N writes
	// WriteQueueSched bounds the write-issue scan window: 0 scans the
	// whole queue past power-denied entries (Hay et al.'s "issue writes
	// continuously as long as power demands can be satisfied"); > 0
	// limits the scan to the first X entries (sche-X); < 0 is strict
	// FIFO power order (a write denied tokens blocks those behind it),
	// kept for ablation.
	WriteQueueSched int

	// --- Read-latency interaction schemes ---
	WriteCancellation bool
	WritePausing      bool
	WriteTruncation   bool
	TruncateTailCells int // WT: truncate when <= this many cells remain (ECC covers them)

	// --- Misc ---
	Seed uint64
}

// DefaultConfig returns the paper's Table 1 baseline configuration.
func DefaultConfig() Config {
	return Config{
		Cores:        8,
		CPUFreqGHz:   4,
		InstrPerCore: 200_000,

		L1SizeKB:    32,
		L1LineB:     64,
		L1Ways:      4,
		L1HitCycles: 2,

		L2SizeKB:    2048,
		L2LineB:     64,
		L2Ways:      4,
		L2HitCycles: 7, // 2-cycle tag + 5-cycle data
		CPUToL2:     16,

		L3SizeMB:    32,
		L3LineB:     256,
		L3Ways:      8,
		L3HitCycles: 200, // 50 ns at 4 GHz
		CPUToL3:     64,

		ReadQueueEntries:  24,
		WriteQueueEntries: 24,
		MCToBank:          64,

		Banks:         8,
		Chips:         8,
		PCMReadCycles: 1000, // 250 ns
		ResetCycles:   500,  // 125 ns
		SetCycles:     1000, // 250 ns
		BitsPerCell:   2,
		Iter01Mean:    8,
		Iter01F1:      0.375,
		Iter10Mean:    6,
		Iter10F1:      0.425,
		IterMax:       16,

		DIMMTokens:    560,
		LCPEff:        0.95,
		GCPEff:        0.70,
		GCPMaxTokens:  0, // one LCP
		SetPowerRatio: 0.5,
		LocalScale:    1.0,

		Scheme:          SchemeDIMMChip,
		CellMapping:     MapNaive,
		MultiResetSplit: 3,
		PWLShiftWrites:  32,

		TruncateTailCells: 8,

		Seed: 0x46504231, // "FPB1"
	}
}

// LCPTokens returns PT_LCP for one chip under this configuration (Eq. 4,
// scaled by LocalScale for the 1.5x/2xlocal studies).
func (c *Config) LCPTokens() float64 {
	return c.DIMMTokens * c.LCPEff / float64(c.Chips) * c.LocalScale
}

// GCPTokens returns the maximum output of the global charge pump; the
// paper's default sizes it equal to one local charge pump.
func (c *Config) GCPTokens() float64 {
	if c.GCPMaxTokens > 0 {
		return c.GCPMaxTokens
	}
	return c.LCPTokens()
}

// CellsPerLine returns the number of PCM cells storing one memory line.
func (c *Config) CellsPerLine() int {
	return c.L3LineB * 8 / c.BitsPerCell
}

// ReadCycles returns the array read latency, doubled under the two-round
// half-stripe layout.
func (c *Config) ReadCycles() Cycle {
	if c.HalfStripe {
		return 2 * c.PCMReadCycles
	}
	return c.PCMReadCycles
}

// The workload address layout places each core's streaming load and store
// regions 1 GB apart. A region spans twice the L3 (STREAM apps) and at
// least 4096 L3 lines, so these bounds keep the two regions disjoint.
const (
	// MaxL3SizeMB is the largest per-core L3: 2 x 512 MB fills the 1 GB.
	MaxL3SizeMB = 512
	// MaxL3LineB is the largest L3 line: 4096 lines of 256 KiB fill it.
	MaxL3LineB = 256 << 10
)

// MinL1LineB is the shortest L1 line. The workload generator's hot
// accesses are 64 B apart, and so are the reads of prefill's walk of the
// hot region, whose closed form needs every L1 line it spans read: a
// shorter line would be skipped.
const MinL1LineB = 64

// MaxIterMax is the largest IterMax. It bounds every iteration draw, so a
// write's per-iteration tallies stay small and each draw fits the byte the
// PCM model's draw memo keeps it in.
const MaxIterMax = 255

// Validate checks internal consistency and returns a descriptive error for
// the first problem found.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.Chips <= 0 || c.Banks <= 0:
		return fmt.Errorf("config: Chips (%d) and Banks (%d) must be positive", c.Chips, c.Banks)
	case c.BitsPerCell != 1 && c.BitsPerCell != 2:
		return fmt.Errorf("config: BitsPerCell must be 1 or 2, got %d", c.BitsPerCell)
	case c.L1LineB <= 0 || c.L2LineB <= 0 || c.L3LineB <= 0:
		return fmt.Errorf("config: line sizes must be positive")
	case c.L1LineB < MinL1LineB:
		return fmt.Errorf("config: L1LineB %d below %d: the workload's hot accesses, and prefill's walk of them, are %d B apart",
			c.L1LineB, MinL1LineB, MinL1LineB)
	case c.L2LineB%c.L1LineB != 0 || c.L3LineB%c.L2LineB != 0:
		return fmt.Errorf("config: line sizes must nest (L1 %dB, L2 %dB, L3 %dB)",
			c.L1LineB, c.L2LineB, c.L3LineB)
	case c.CellsPerLine()%c.Chips != 0:
		return fmt.Errorf("config: %d cells/line not divisible across %d chips",
			c.CellsPerLine(), c.Chips)
	case c.DIMMTokens <= 0 && c.Scheme != SchemeIdeal:
		return fmt.Errorf("config: DIMMTokens must be positive for scheme %v", c.Scheme)
	case c.LCPEff <= 0 || c.LCPEff > 1:
		return fmt.Errorf("config: LCPEff must be in (0,1], got %g", c.LCPEff)
	case c.GCPEff <= 0 || c.GCPEff > 1:
		return fmt.Errorf("config: GCPEff must be in (0,1], got %g", c.GCPEff)
	case c.SetPowerRatio <= 0 || c.SetPowerRatio > 1:
		return fmt.Errorf("config: SetPowerRatio must be in (0,1], got %g", c.SetPowerRatio)
	case c.IterMax < 2 || c.IterMax > MaxIterMax:
		return fmt.Errorf("config: IterMax must be in [2, %d], got %d", MaxIterMax, c.IterMax)
	case !(c.Iter01Mean >= 2 && c.Iter01Mean <= float64(c.IterMax)):
		return fmt.Errorf("config: Iter01Mean must be in [2, IterMax %d], got %g", c.IterMax, c.Iter01Mean)
	case !(c.Iter10Mean >= 2 && c.Iter10Mean <= float64(c.IterMax)):
		return fmt.Errorf("config: Iter10Mean must be in [2, IterMax %d], got %g", c.IterMax, c.Iter10Mean)
	case !(c.Iter01F1 >= 0 && c.Iter01F1 < 1):
		return fmt.Errorf("config: Iter01F1 must be in [0, 1), got %g", c.Iter01F1)
	case !(c.Iter10F1 >= 0 && c.Iter10F1 < 1):
		return fmt.Errorf("config: Iter10F1 must be in [0, 1), got %g", c.Iter10F1)
	case c.ReadQueueEntries <= 0 || c.WriteQueueEntries <= 0:
		return fmt.Errorf("config: queue entries must be positive")
	case c.L3SizeMB > MaxL3SizeMB:
		return fmt.Errorf("config: L3SizeMB %d above %d: the workload layout puts the load and store stream regions, each twice the L3, 1 GB apart",
			c.L3SizeMB, MaxL3SizeMB)
	case c.L3LineB > MaxL3LineB:
		return fmt.Errorf("config: L3LineB %d above %d: the workload layout puts the load and store stream regions, each at least 4096 lines, 1 GB apart",
			c.L3LineB, MaxL3LineB)
	}
	if _, ok := schemeNames[c.Scheme]; !ok {
		return fmt.Errorf("config: unknown Scheme %d", int(c.Scheme))
	}
	for _, l := range []struct {
		name             string
		bytes, line, way int
	}{
		{"L1", c.L1SizeKB * 1024, c.L1LineB, c.L1Ways},
		{"L2", c.L2SizeKB * 1024, c.L2LineB, c.L2Ways},
		{"L3", c.L3SizeMB * 1024 * 1024, c.L3LineB, c.L3Ways},
	} {
		switch {
		case l.bytes <= 0 || l.way <= 0:
			return fmt.Errorf("config: %s size (%d B) and ways (%d) must be positive", l.name, l.bytes, l.way)
		case l.bytes/l.line/l.way < 1: // two divisions: line*way may overflow
			return fmt.Errorf("config: %s of %d B holds less than one %d-way set of %d B lines",
				l.name, l.bytes, l.way, l.line)
		}
	}
	return nil
}

// UsesGCP reports whether the scheme employs the global charge pump.
func (c *Config) UsesGCP() bool {
	switch c.Scheme {
	case SchemeGCP, SchemeGCPIPM, SchemeGCPIPMMR:
		return true
	}
	return false
}

// UsesIPM reports whether the scheme uses iteration power management.
func (c *Config) UsesIPM() bool {
	switch c.Scheme {
	case SchemeGCPIPM, SchemeGCPIPMMR, SchemeIPM, SchemeIPMMR:
		return true
	}
	return false
}

// UsesMultiReset reports whether Multi-RESET splitting is active.
func (c *Config) UsesMultiReset() bool {
	switch c.Scheme {
	case SchemeGCPIPMMR, SchemeIPMMR:
		return c.MultiResetSplit > 1
	}
	return false
}

// EnforcesChipBudget reports whether per-chip power limits apply.
func (c *Config) EnforcesChipBudget() bool {
	switch c.Scheme {
	case SchemeIdeal, SchemeDIMMOnly:
		return false
	}
	return true
}

// EnforcesDIMMBudget reports whether the DIMM-level limit applies.
func (c *Config) EnforcesDIMMBudget() bool {
	return c.Scheme != SchemeIdeal
}
