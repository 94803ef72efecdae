package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"parcfl/internal/obs"
)

// OverloadedError reports a 429 from the daemon: admission control rejected
// the request because the pending-variable queue was full. It carries the
// server's Retry-After hint and unwraps to ErrOverloaded, so callers can
// test errors.Is(err, server.ErrOverloaded) without depending on this type.
type OverloadedError struct {
	// RetryAfter is the server's back-off hint (0 when none was sent).
	RetryAfter time.Duration
	msg        string
}

func (e *OverloadedError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// RetryPolicy is the client's opt-in handling of overload rejections: a
// bounded, jittered exponential back-off that honours the server's
// Retry-After hint and never sleeps past the request context's deadline.
// Only ErrOverloaded responses are retried — queries are read-only, so a
// repeat is always safe, but other failures (timeouts, unknown variables,
// daemon shutdown) are not transient in the same way.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (values below 2 disable retrying).
	MaxAttempts int
	// BaseDelay is the first back-off, doubled each further attempt
	// (0 means 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the back-off growth (0 means 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) cap() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

// delay computes the back-off before attempt i+1 (i counts completed
// attempts, so the first retry sees i == 0): the doubled base, capped, with
// full jitter on the upper half so synchronised clients spread out.
func (p RetryPolicy) delay(i int) time.Duration {
	d := p.base() << uint(i)
	if d <= 0 || d > p.cap() { // <= 0 catches shift overflow
		d = p.cap()
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Client speaks the daemon's /v1 JSON API. It is a thin convenience over
// net/http — safe for concurrent use, no state beyond the base URL and
// retry policy.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// NewClient targets a daemon at base (e.g. "http://localhost:7070"). A nil
// hc uses http.DefaultClient. The returned client does not retry; see
// WithRetry.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc}
}

// WithRetry returns a copy of the client that retries overload rejections
// under the given policy. The receiver is unchanged.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	nc := *c
	nc.retry = p
	return &nc
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRid(ctx, "", "", method, path, in, out)
}

func (c *Client) doRid(ctx context.Context, rid, traceparent, method, path string, in, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, rid, traceparent, method, path, in, out)
		var oe *OverloadedError
		if err == nil || !errors.As(err, &oe) || attempt+1 >= c.retry.MaxAttempts {
			return err
		}
		delay := c.retry.delay(attempt)
		if oe.RetryAfter > delay {
			delay = oe.RetryAfter
		}
		// Sleeping past the caller's deadline would just convert an
		// actionable "overloaded" into a vague context error; give up with
		// the real cause instead.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (c *Client) doOnce(ctx context.Context, rid, traceparent, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set(RequestIDHeader, rid)
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceParentHeader, traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorReply
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = fmt.Sprintf("%s (%s)", e.Error, resp.Status)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			oe := &OverloadedError{msg: "server: " + msg}
			oe.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
			return oe
		}
		return fmt.Errorf("server: %s", msg)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// maxRetryAfter bounds how far in the future a Retry-After hint may point:
// beyond this the value is treated as absurd (a broken server clock or a
// hostile proxy) and clamped, so a client never parks itself for hours on
// one malformed header.
const maxRetryAfter = 5 * time.Minute

// parseRetryAfter interprets a Retry-After header per RFC 9110 §10.2.3:
// either delta-seconds or an HTTP-date. Negative and unparseable values
// yield 0 (no hint); values beyond maxRetryAfter clamp to it.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(h); err == nil {
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(h); err == nil {
		d = when.Sub(now)
	} else {
		return 0
	}
	if d < 0 {
		return 0
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// Query answers a batch of variables by name (positional results). A zero
// timeout uses the server default.
func (c *Client) Query(ctx context.Context, vars []string, timeout time.Duration) ([]VarResult, error) {
	reply, err := c.QueryRequest(ctx, "", vars, timeout)
	if err != nil {
		return nil, err
	}
	return reply.Results, nil
}

// QueryRequest is Query carrying an explicit request ID: requestID travels
// as the X-Parcfl-Request-Id header (empty lets the server mint one) and
// the full reply — echoed ID and per-variable phase timings — is returned.
// The client mints a fresh W3C traceparent for the request (shared across
// overload retries, so one logical request is one trace); callers that are
// themselves part of a trace forward their own with QueryTraced.
func (c *Client) QueryRequest(ctx context.Context, requestID string, vars []string, timeout time.Duration) (QueryReply, error) {
	return c.QueryTraced(ctx, requestID, obs.MintTraceParent().String(), vars, timeout)
}

// QueryTraced is QueryRequest forwarding an explicit W3C traceparent header
// value (empty sends none; the server then mints the trace id itself). The
// reply's TraceID reports the trace the request was served under.
func (c *Client) QueryTraced(ctx context.Context, requestID, traceparent string, vars []string, timeout time.Duration) (QueryReply, error) {
	spec := QuerySpec{Vars: vars, TimeoutMS: timeout.Milliseconds()}
	var reply QueryReply
	if err := c.doRid(ctx, requestID, traceparent, http.MethodPost, "/v1/query", &spec, &reply); err != nil {
		return QueryReply{}, err
	}
	if len(reply.Results) != len(vars) {
		return QueryReply{}, fmt.Errorf("server: %d results for %d vars", len(reply.Results), len(vars))
	}
	return reply, nil
}

// Stats fetches the cumulative service stats.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var s Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &s)
	return s, err
}

// SaveSnapshot asks the daemon to persist its warm state to its configured
// snapshot path. Returns where it landed.
func (c *Client) SaveSnapshot(ctx context.Context) (string, error) {
	var reply SnapshotReply
	err := c.do(ctx, http.MethodPost, "/v1/snapshot", nil, &reply)
	return reply.Path, err
}

// Vars lists the daemon's application query variables by name.
func (c *Client) Vars(ctx context.Context) ([]string, error) {
	var reply VarsReply
	if err := c.do(ctx, http.MethodGet, "/v1/vars", nil, &reply); err != nil {
		return nil, err
	}
	return reply.Vars, nil
}
