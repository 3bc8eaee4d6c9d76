package power

import (
	"testing"

	"fpb/internal/testutil"
)

// TestGCPAcquireReleaseZeroAlloc guards the grant path at its most
// expensive: an acquire admitted through the GCP borrow (which sorts the
// chips by headroom) and its release, into one kept Grant, allocate nothing.
func TestGCPAcquireReleaseZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m, d := gcpBorrowSetup()
	var g Grant
	allocs := testing.AllocsPerRun(1000, func() {
		if !m.TryAcquire(d, &g) || g.GCPTokens() == 0 {
			t.Fatal("demand not admitted through the GCP")
		}
		m.Release(&g)
	})
	if allocs != 0 {
		t.Errorf("GCP TryAcquire+Release allocated %.1f objects/op, want 0", allocs)
	}
}
