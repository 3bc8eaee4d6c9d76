package mem

import (
	"strings"
	"testing"

	"fpb/internal/sim"
)

// TestDumpStateDoesNotPanic exercises the deadlock-diagnostic dump across
// interesting controller states and checks what it reports: queue lengths
// and power state always, a line for each bank that is not idle, and
// nothing else.
func TestDumpStateDoesNotPanic(t *testing.T) {
	eng, c, cfg := newCtl(t, sim.SchemeGCPIPM, nil)
	check := func(when string, wantBanks bool) {
		t.Helper()
		s := c.DumpState()
		for _, want := range []string{"rdq=", "wrq=", "DIMM avail=", "chip avail=", "banks idle"} {
			if !strings.Contains(s, want) {
				t.Errorf("%s: dump lacks %q:\n%s", when, want, s)
			}
		}
		if lines := strings.Count(s, "\n") + 1; lines > 3+cfg.Banks {
			t.Errorf("%s: %d lines for %d banks:\n%s", when, lines, cfg.Banks, s)
		}
		if got := strings.Contains(s, "\nbank "); got != wantBanks {
			t.Errorf("%s: bank lines present = %v, want %v:\n%s", when, got, wantBanks, s)
		}
	}
	check("idle", false)
	c.TryEnqueueWrite(0, mkLine(cfg, 200))
	c.TryEnqueueRead(uint64(cfg.L3LineB), nil)
	eng.RunUntil(eng.Now() + 2000)
	check("mid-flight", true)
	eng.Run(0)
	check("drained", false)
}
