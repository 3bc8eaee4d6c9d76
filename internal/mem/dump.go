package mem

import (
	"fmt"
	"strings"
)

// DumpState describes the controller for a deadlock report in a few lines:
// queue lengths, power state, then one line per bank that is not idle.
func (c *Controller) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "burst=%v rdq=%d fillq=%d wrq=%d waiting=%d resume=%d readSpaceWaiters=%d writeSpaceWaiters=%d\n",
		c.burst, len(c.rdq), len(c.fillq), len(c.wrq), len(c.waitingOps), len(c.resumeOps),
		len(c.readSpaceWaiters), len(c.writeSpaceWaiters))
	mgr := c.sched.Manager()
	fmt.Fprintf(&b, "DIMM avail=%.1f gcpInUse=%.1f chip avail=", mgr.DIMMAvailable(), mgr.GCPInUse())
	for i := 0; i < c.cfg.Chips; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%.2f", mgr.ChipAvailable(i))
	}
	idle := 0
	for i := range c.banks {
		bk := &c.banks[i]
		if !bk.busy && !bk.readBusy && bk.wr == nil {
			idle++
			continue
		}
		fmt.Fprintf(&b, "\nbank %d: busy=%v read=%v", i, bk.busy, bk.readBusy)
		if bk.wr != nil {
			fmt.Fprintf(&b, " wr(phase=%d paused=%v holds=%v pauseReq=%v ev=%v cancelled=%d)",
				bk.wr.ticket.PhaseIndex(), bk.wr.paused, bk.wr.ticket.Holds(), bk.wr.pauseReq,
				bk.wr.phaseEv.Scheduled(), bk.wr.req.cancelled)
		}
	}
	fmt.Fprintf(&b, "\n%d of %d banks idle", idle, len(c.banks))
	return b.String()
}
