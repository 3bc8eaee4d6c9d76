// Package client is the Go client for fpbd simulation daemons
// (internal/serve): one daemon or a consistent-hash fleet of them. Fleet
// (fleet.go) routes each job to the ring owner of its system.Key and walks
// the key's successors when a node is down or pushes back with 429, waiting
// out the server-advertised Retry-After (jittered, so a saturated fleet
// never sees synchronized retry storms) when every node is busy. Fleet.Run
// matches exp.Backend, so fpbexp can offload whole figure runs. This file
// holds the per-node transport underneath: one HTTP attempt per call, with
// a non-200 answer decoded into the *serve.StatusError the walk acts on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fpb/internal/serve"
)

// Normalize canonicalizes a daemon address ("host:port" or a full http://
// URL) into the base-URL form every fleet layer uses as the node's identity.
// Ring placement hashes these strings, so all participants must normalize
// the same way — spelling a node "10.0.0.1:8080" here and
// "http://10.0.0.1:8080" there would split it into two ring members.
func Normalize(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// health checks GET /healthz on one member.
func (f *Fleet) health(ctx context.Context, member string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: health: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health: %s", resp.Status)
	}
	return nil
}

// defaultRetryDelay is used when a 429 carries no parseable Retry-After.
const defaultRetryDelay = 500 * time.Millisecond

// RetryDelay converts a Retry-After hint into the wait actually slept: the
// server's exact advertised value (or defaultRetryDelay when absent),
// jittered uniformly over [d/2, d] ("equal jitter"). Without jitter, every
// client a saturated daemon rejected in the same window would sleep the
// identical advertised delay and stampede back in lockstep, re-saturating
// the queue; the randomized half keeps mean backoff at 3d/4 while spreading
// re-arrivals across half the advertised window.
func RetryDelay(hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = defaultRetryDelay
	}
	half := d / 2
	// math/rand's global source is safe for concurrent use; retry timing
	// deliberately does NOT come from the simulation's deterministic RNG —
	// it must differ across clients, never across results.
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// parseRetryAfter reads a Retry-After header value: delay-seconds (integer
// per the RFC, fractional as our server emits for sub-second configs) or an
// HTTP-date. Returns 0 when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.ParseFloat(h, 64); err == nil && secs >= 0 {
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Submit posts spec to one member exactly once — no retries, no waiting —
// and answers as Server.RunLocal does: the decoded body, with a nil error
// for 200 or a *serve.StatusError carrying the code and the parsed
// Retry-After; transport failures return the wrapped net/http error.
// The walk builds replica failover on this: it wants the 429 immediately
// so it can try the next ring owner instead of camping on a saturated node.
func (f *Fleet) Submit(ctx context.Context, member string, spec serve.JobSpec) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: encoding spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, member+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(req)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("client: reading response: %w", err)
	}
	var st serve.JobStatus
	jerr := json.Unmarshal(raw, &st)
	if resp.StatusCode == http.StatusOK {
		if jerr != nil {
			return serve.JobStatus{}, fmt.Errorf("client: decoding response: %w", jerr)
		}
		return st, nil
	}
	msg := st.Error
	if msg == "" {
		msg = strings.TrimSpace(string(raw))
	}
	return st, &serve.StatusError{
		Code:  resp.StatusCode,
		Msg:   msg,
		After: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
}
