package sim

import (
	"math"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.Cores != 8 || c.CPUFreqGHz != 4 {
		t.Errorf("CPU = %d cores @ %g GHz, want 8 @ 4", c.Cores, c.CPUFreqGHz)
	}
	if c.PCMReadCycles != 1000 || c.ResetCycles != 500 || c.SetCycles != 1000 {
		t.Errorf("PCM timing = read %d / reset %d / set %d, want 1000/500/1000",
			c.PCMReadCycles, c.ResetCycles, c.SetCycles)
	}
	if c.DIMMTokens != 560 {
		t.Errorf("DIMMTokens = %g, want 560", c.DIMMTokens)
	}
	if c.L3LineB != 256 || c.L3SizeMB != 32 {
		t.Errorf("L3 = %dMB/%dB lines, want 32MB/256B", c.L3SizeMB, c.L3LineB)
	}
}

func TestLCPTokensEquation4(t *testing.T) {
	c := DefaultConfig()
	// PT_LCP = PT_DIMM * E_LCP / 8 = 560*0.95/8 = 66.5
	if got := c.LCPTokens(); math.Abs(got-66.5) > 1e-9 {
		t.Errorf("LCPTokens = %g, want 66.5", got)
	}
	c.LocalScale = 2
	if got := c.LCPTokens(); math.Abs(got-133) > 1e-9 {
		t.Errorf("2xlocal LCPTokens = %g, want 133", got)
	}
}

func TestGCPTokensDefaultsToOneLCP(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.GCPTokens(), c.LCPTokens(); got != want {
		t.Errorf("GCPTokens = %g, want one LCP = %g", got, want)
	}
	c.GCPMaxTokens = 120
	if got := c.GCPTokens(); got != 120 {
		t.Errorf("explicit GCPTokens = %g, want 120", got)
	}
}

func TestCellsPerLine(t *testing.T) {
	c := DefaultConfig()
	if got := c.CellsPerLine(); got != 1024 { // 256B * 8 / 2 bits
		t.Errorf("CellsPerLine = %d, want 1024 for 256B MLC", got)
	}
	c.BitsPerCell = 1
	if got := c.CellsPerLine(); got != 2048 {
		t.Errorf("SLC CellsPerLine = %d, want 2048", got)
	}
	c.BitsPerCell = 2
	c.L3LineB = 64
	if got := c.CellsPerLine(); got != 256 {
		t.Errorf("64B MLC CellsPerLine = %d, want 256", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"bad bits per cell", func(c *Config) { c.BitsPerCell = 3 }},
		{"non-nesting lines", func(c *Config) { c.L2LineB = 48 }},
		{"L1 lines of 32 B", func(c *Config) { c.L1LineB = 32 }},
		{"L1 lines of 48 B", func(c *Config) { c.L1LineB, c.L2LineB, c.L3LineB = 48, 192, 768 }},
		{"bad LCP eff", func(c *Config) { c.LCPEff = 0 }},
		{"bad GCP eff", func(c *Config) { c.GCPEff = 1.5 }},
		{"zero tokens", func(c *Config) { c.DIMMTokens = 0 }},
		{"bad set ratio", func(c *Config) { c.SetPowerRatio = 0 }},
		{"tiny iter max", func(c *Config) { c.IterMax = 1 }},
		{"iter max above MaxIterMax", func(c *Config) { c.IterMax = MaxIterMax + 1 }},
		{"huge iter max and mean", func(c *Config) { c.IterMax, c.Iter01Mean = 1<<30, 1e9 }},
		{"'01' mean below 2", func(c *Config) { c.Iter01Mean = 1.5 }},
		{"'01' mean above IterMax", func(c *Config) { c.Iter01Mean = float64(c.IterMax) + 0.5 }},
		{"'01' mean out of range", func(c *Config) { c.Iter01Mean = 1e308 }},
		{"'01' mean NaN", func(c *Config) { c.Iter01Mean = math.NaN() }},
		{"'10' mean infinite", func(c *Config) { c.Iter10Mean = math.Inf(1) }},
		{"'10' mean below 2", func(c *Config) { c.Iter10Mean = -3 }},
		{"'01' fast weight 1", func(c *Config) { c.Iter01F1 = 1 }},
		{"'01' fast weight negative", func(c *Config) { c.Iter01F1 = -0.1 }},
		{"'10' fast weight NaN", func(c *Config) { c.Iter10F1 = math.NaN() }},
		{"'10' fast weight above 1", func(c *Config) { c.Iter10F1 = 1.5 }},
		{"zero queues", func(c *Config) { c.ReadQueueEntries = 0 }},
		{"zero chips", func(c *Config) { c.Chips = 0 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

// TestValidateAcceptsIterationLawEdges: the bounds of the iteration law
// are themselves valid.
func TestValidateAcceptsIterationLawEdges(t *testing.T) {
	for _, m := range []struct {
		name string
		mut  func(*Config)
	}{
		{"IterMax at MaxIterMax", func(c *Config) { c.IterMax = MaxIterMax }},
		{"IterMax 2 with means 2", func(c *Config) { c.IterMax, c.Iter01Mean, c.Iter10Mean = 2, 2, 2 }},
		{"means at IterMax", func(c *Config) { c.Iter01Mean, c.Iter10Mean = float64(c.IterMax), float64(c.IterMax) }},
		{"fast weights 0", func(c *Config) { c.Iter01F1, c.Iter10F1 = 0, 0 }},
	} {
		c := DefaultConfig()
		m.mut(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate rejected a valid config: %v", m.name, err)
		}
	}
}

func TestValidateIdealAllowsNoTokens(t *testing.T) {
	c := DefaultConfig()
	c.Scheme = SchemeIdeal
	c.DIMMTokens = 0
	if err := c.Validate(); err != nil {
		t.Errorf("Ideal with zero tokens should validate, got %v", err)
	}
}

func TestSchemePredicates(t *testing.T) {
	cases := []struct {
		s                        Scheme
		gcp, ipm, chip, dimm, mr bool
	}{
		{SchemeIdeal, false, false, false, false, false},
		{SchemeDIMMOnly, false, false, false, true, false},
		{SchemeDIMMChip, false, false, true, true, false},
		{SchemeGCP, true, false, true, true, false},
		{SchemeGCPIPM, true, true, true, true, false},
		{SchemeGCPIPMMR, true, true, true, true, true},
		{SchemeIPM, false, true, true, true, false},
		{SchemeIPMMR, false, true, true, true, true},
	}
	for _, tc := range cases {
		c := DefaultConfig()
		c.Scheme = tc.s
		if c.UsesGCP() != tc.gcp {
			t.Errorf("%v UsesGCP = %v", tc.s, c.UsesGCP())
		}
		if c.UsesIPM() != tc.ipm {
			t.Errorf("%v UsesIPM = %v", tc.s, c.UsesIPM())
		}
		if c.EnforcesChipBudget() != tc.chip {
			t.Errorf("%v EnforcesChipBudget = %v", tc.s, c.EnforcesChipBudget())
		}
		if c.EnforcesDIMMBudget() != tc.dimm {
			t.Errorf("%v EnforcesDIMMBudget = %v", tc.s, c.EnforcesDIMMBudget())
		}
		if c.UsesMultiReset() != tc.mr {
			t.Errorf("%v UsesMultiReset = %v", tc.s, c.UsesMultiReset())
		}
	}
}

func TestSchemeAndMappingStrings(t *testing.T) {
	if SchemeGCPIPMMR.String() != "GCP+IPM+MR" {
		t.Errorf("scheme string = %q", SchemeGCPIPMMR.String())
	}
	if MapBIM.String() != "BIM" || MapVIM.String() != "VIM" || MapNaive.String() != "NE" {
		t.Error("mapping strings wrong")
	}
	if Scheme(99).String() == "" || Mapping(99).String() == "" {
		t.Error("unknown enum must still stringify")
	}
}
