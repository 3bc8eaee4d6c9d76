// Package power implements the token-based write power accounting of the
// paper: a DIMM-level budget (Hay et al.'s 560 cell-RESET tokens), per-chip
// local charge pump (LCP) budgets (Eq. 4), and the global charge pump (GCP)
// that borrows unused chip power and re-supplies it to hot chips at reduced
// efficiency (Eq. 5/6). One power token is the power needed to RESET one
// MLC cell; a SET consumes SetPowerRatio tokens.
package power

import "fmt"

// epsilon absorbs float64 rounding in token arithmetic; token quantities
// are sums of small rationals so drift stays far below this.
const epsilon = 1e-9

// Pool is a bounded reservoir of power tokens.
type Pool struct {
	cap   float64
	avail float64
}

// NewPool returns a pool with the given capacity, initially full.
func NewPool(cap float64) *Pool {
	return &Pool{cap: cap, avail: cap}
}

// Cap returns the pool capacity.
func (p *Pool) Cap() float64 { return p.cap }

// Available returns the tokens currently free.
func (p *Pool) Available() float64 { return p.avail }

// InUse returns the tokens currently allocated.
func (p *Pool) InUse() float64 { return p.cap - p.avail }

// CanAcquire reports whether n tokens are available.
func (p *Pool) CanAcquire(n float64) bool {
	return p.avail+epsilon >= n
}

// Acquire takes n tokens; it panics if they are not available (callers must
// check first — issuing an unreliable write is a simulator bug, exactly as
// it would be a reliability bug in hardware).
func (p *Pool) Acquire(n float64) {
	if !p.CanAcquire(n) {
		panic(fmt.Sprintf("power: acquiring %.3f tokens with only %.3f available", n, p.avail))
	}
	p.avail -= n
	if p.avail < 0 {
		p.avail = 0
	}
}

// Release returns n tokens; it panics on over-release.
func (p *Pool) Release(n float64) {
	p.avail += n
	if p.avail > p.cap+epsilon {
		panic(fmt.Sprintf("power: released %.3f tokens past capacity %.3f", n, p.cap))
	}
	if p.avail > p.cap {
		p.avail = p.cap
	}
}
