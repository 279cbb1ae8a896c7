// Package client is the typed Go SDK for the rwdomd random-walk-domination
// daemon. Its request and reply structs are the v1 wire contract: the daemon
// serializes these same types, so client and server cannot drift. It adds
// typed errors carrying the daemon's stable machine-readable codes, automatic
// retry when the daemon is draining, and a streaming iterator for selects.
//
//	c, err := client.New("http://localhost:7474")
//	if err != nil { ... }
//	res, err := c.Select(ctx, client.SelectRequest{Graph: "web", K: 50, L: 6})
//	if err != nil { ... }
//	fmt.Println(res.Nodes)
//
// Streaming a selection round by round:
//
//	st, err := c.SelectStream(ctx, client.SelectRequest{Graph: "web", K: 50, L: 6})
//	if err != nil { ... }
//	defer st.Close()
//	for st.Next() {
//		rd := st.Round()
//		fmt.Printf("round %d: node %d (objective %.1f)\n", rd.Round, rd.Node, rd.Objective)
//	}
//	res, err := st.Result() // the blocking-shape reply, bit-identical nodes/gains
//
// Errors returned by every method are (*Error) when the daemon produced a
// structured failure; Code carries the stable code (CodeBadRequest,
// CodeNotFound, CodeDraining, CodeOverloaded, CodeTimeout, CodeConflict,
// CodeStaleEpoch, CodeUnsupported, CodeInternal) from the shared JSON envelope
// {"error":{"code","message"}}. Draining and
// overloaded replies are retried automatically with jittered exponential
// backoff, honoring the daemon's Retry-After hint when one is present.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Stable error codes, shared verbatim with the daemon's error envelope.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeDraining   = "draining"
	CodeOverloaded = "overloaded"
	CodeTimeout    = "timeout"
	// CodeConflict marks a graph mutation the current graph state rejects: a
	// stale base epoch (another writer won the race — re-read and retry with
	// the new epoch) or a structurally conflicting delta. Nothing was applied.
	CodeConflict = "conflict"
	// CodeStaleEpoch marks a read pinned to a graph epoch the daemon has
	// moved past; retrying against the current epoch succeeds.
	CodeStaleEpoch = "stale_epoch"
	// CodeUnsupported marks a well-formed request combining features the
	// daemon's serving mode cannot honor — today, accuracy knobs
	// (epsilon/delta) against a sharded deployment. Retry without the knob
	// or against an unsharded daemon.
	CodeUnsupported = "unsupported"
	CodeInternal    = "internal"
)

// Error is a structured daemon error.
type Error struct {
	// Code is one of the stable Code* constants.
	Code string
	// Message is the human-readable explanation.
	Message string
	// HTTPStatus is the status the daemon answered with.
	HTTPStatus int
	// RetryAfter is the daemon's Retry-After hint; valid only when
	// HasRetryAfter is true (the daemon sends "Retry-After: 0" to mean
	// "retry immediately", which is distinct from no hint at all).
	RetryAfter time.Duration
	// HasRetryAfter reports whether the reply carried a Retry-After header.
	HasRetryAfter bool
}

func (e *Error) Error() string {
	return fmt.Sprintf("rwdomd: %s (%s)", e.Message, e.Code)
}

// Temporary reports whether retrying later may succeed: the daemon was
// draining (a rolling restart's window) or overloaded (its admission gate
// shed the request; capacity frees as in-flight work completes).
func (e *Error) Temporary() bool { return e.Code == CodeDraining || e.Code == CodeOverloaded }

// CodeOf extracts the stable code from any client method error, or
// CodeInternal if it carries none (transport failures etc.).
func CodeOf(err error) string {
	var ce *Error
	if errors.As(err, &ce) {
		return ce.Code
	}
	return CodeInternal
}

// Client talks to one rwdomd base URL. It is safe for concurrent use.
type Client struct {
	base    *url.URL
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation). The default is http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry sets the per-call retry budget — how many times one request is
// retried when the daemon answers with a Temporary error (503 "draining" or
// "overloaded") — and the base backoff between attempts. The backoff doubles
// each retry and is jittered (each sleep is drawn uniformly from
// [backoff/2, backoff]) so that a fleet of clients shed at the same instant
// does not retry in lockstep. A Retry-After hint from the daemon overrides
// the computed backoff for that attempt, including "Retry-After: 0" meaning
// retry immediately. The default is 3 retries starting at 200ms;
// WithRetry(0, 0) disables retrying.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = retries, backoff }
}

// New returns a client for the daemon at baseURL (e.g.
// "http://localhost:7474").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{base: u, hc: http.DefaultClient, retries: 3, backoff: 200 * time.Millisecond}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// do issues the request built by build, retrying Temporary errors (drain
// and overload sheds) with jittered exponential backoff up to the per-call
// retry budget. build is called per attempt so bodies are fresh.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req.WithContext(ctx))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			return resp, nil
		}
		apiErr := decodeError(resp)
		if !apiErr.Temporary() || attempt >= c.retries {
			return nil, apiErr
		}
		wait := retryDelay(backoff, apiErr, rand.Float64())
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		backoff *= 2
	}
}

// retryDelay computes the sleep before the next attempt. The daemon's
// Retry-After hint, when present, overrides the client-side backoff — a
// hint of zero means "a slot frees the moment in-flight work completes, go
// now". Otherwise the wait is the current backoff jittered into
// [backoff/2, backoff] by u ∈ [0, 1), decorrelating clients that were shed
// together.
func retryDelay(backoff time.Duration, apiErr *Error, u float64) time.Duration {
	if apiErr.HasRetryAfter {
		return apiErr.RetryAfter
	}
	if backoff <= 0 {
		return 0
	}
	return backoff/2 + time.Duration(u*float64(backoff/2))
}

// decodeError turns a non-200 response into a typed *Error, consuming and
// closing the body. A Retry-After header (integer seconds or HTTP-date) is
// parsed into the error's hint fields.
func decodeError(resp *http.Response) *Error {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	e := &Error{HTTPStatus: resp.StatusCode}
	var env ErrorResponse
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		e.Code, e.Message = env.Error.Code, env.Error.Message
	} else {
		e.Code = CodeInternal
		e.Message = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter, e.HasRetryAfter = time.Duration(secs)*time.Second, true
		} else if at, err := http.ParseTime(ra); err == nil {
			e.RetryAfter, e.HasRetryAfter = max(0, time.Until(at)), true
		}
	}
	return e
}

// getJSON issues a GET and decodes a 200 into out.
func (c *Client) getJSON(ctx context.Context, path string, query url.Values, out any) error {
	u := c.base.JoinPath(path)
	if query != nil {
		u.RawQuery = query.Encode()
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, u.String(), nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON issues a POST with a JSON body and decodes a 200 into out.
func (c *Client) postJSON(ctx context.Context, path string, query url.Values, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	u := c.base.JoinPath(path)
	if query != nil {
		u.RawQuery = query.Encode()
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, u.String(), bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// nodeList renders ids as the comma-separated wire form.
func nodeList(nodes []int) string {
	if len(nodes) == 0 {
		return ""
	}
	parts := make([]string, len(nodes))
	for i, u := range nodes {
		parts[i] = strconv.Itoa(u)
	}
	return strings.Join(parts, ",")
}

// readQuery builds the shared query parameters of the GET endpoints.
func readQuery(graph, problem string, L, R int, seed *uint64, set []int) url.Values {
	q := url.Values{}
	q.Set("graph", graph)
	if problem != "" {
		q.Set("problem", problem)
	}
	q.Set("L", strconv.Itoa(L))
	if R > 0 {
		q.Set("R", strconv.Itoa(R))
	}
	if seed != nil {
		q.Set("seed", strconv.FormatUint(*seed, 10))
	}
	if len(set) > 0 {
		q.Set("set", nodeList(set))
	}
	return q
}

// Select runs one blocking top-k selection.
func (c *Client) Select(ctx context.Context, req SelectRequest) (*SelectResponse, error) {
	var out SelectResponse
	if err := c.postJSON(ctx, "/v1/select", nil, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Gain returns the marginal gains of req.Nodes against req.Set.
func (c *Client) Gain(ctx context.Context, req GainRequest) (*GainResponse, error) {
	q := readQuery(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	q.Set("nodes", nodeList(req.Nodes))
	var out GainResponse
	if err := c.getJSON(ctx, "/v1/gain", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Objective returns the estimated objective value of req.Set.
func (c *Client) Objective(ctx context.Context, req ObjectiveRequest) (*ObjectiveResponse, error) {
	q := readQuery(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	var out ObjectiveResponse
	if err := c.getJSON(ctx, "/v1/objective", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopGains returns the best candidates by marginal gain against req.Set.
func (c *Client) TopGains(ctx context.Context, req TopGainsRequest) (*TopGainsResponse, error) {
	q := readQuery(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if req.B > 0 {
		q.Set("b", strconv.Itoa(req.B))
	}
	if req.Workers > 0 {
		q.Set("workers", strconv.Itoa(req.Workers))
	}
	var out TopGainsResponse
	if err := c.getJSON(ctx, "/v1/topgains", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ApplyDelta mutates a served graph: append nodes, add edges, remove edges,
// all-or-nothing. Set req.BaseEpoch to make the mutation conditional on the
// graph still being at that epoch (optimistic concurrency); a lost race
// answers CodeConflict. Mutations refused while the daemon drains or sheds
// load are retried like any other call — the daemon only refuses them
// before applying anything.
func (c *Client) ApplyDelta(ctx context.Context, req ApplyDeltaRequest) (*ApplyDeltaResponse, error) {
	var out ApplyDeltaResponse
	if err := c.postJSON(ctx, "/v1/graph/"+url.PathEscape(req.Graph)+"/edges", nil, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PartialGain returns the integer gain sums of req.Nodes against req.Set
// over the replicate range [req.R0, req.R1) — the worker half of
// replicate-sharded serving.
func (c *Client) PartialGain(ctx context.Context, req PartialGainRequest) (*PartialGainResponse, error) {
	q := readQuery(req.Graph, req.Problem, req.L, 0, req.Seed, req.Set)
	q.Set("r0", strconv.Itoa(req.R0))
	q.Set("r1", strconv.Itoa(req.R1))
	if req.Epoch != nil {
		q.Set("epoch", strconv.FormatUint(*req.Epoch, 10))
	}
	if len(req.Nodes) > 0 {
		q.Set("nodes", nodeList(req.Nodes))
	}
	if req.WantObjective {
		q.Set("objective", "1")
	}
	var out PartialGainResponse
	if err := c.getJSON(ctx, "/v1/partial/gain", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PartialTopGains returns the best candidates by integer gain sum over the
// replicate range [req.R0, req.R1), req.Set members excluded.
func (c *Client) PartialTopGains(ctx context.Context, req PartialTopGainsRequest) (*PartialTopGainsResponse, error) {
	q := readQuery(req.Graph, req.Problem, req.L, 0, req.Seed, req.Set)
	q.Set("r0", strconv.Itoa(req.R0))
	q.Set("r1", strconv.Itoa(req.R1))
	if req.Epoch != nil {
		q.Set("epoch", strconv.FormatUint(*req.Epoch, 10))
	}
	if req.B > 0 {
		q.Set("b", strconv.Itoa(req.B))
	}
	if req.Workers > 0 {
		q.Set("workers", strconv.Itoa(req.Workers))
	}
	var out PartialTopGainsResponse
	if err := c.getJSON(ctx, "/v1/partial/topgains", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health returns the daemon's liveness state. A draining daemon answers
// 503 with a well-formed body, which is NOT an error here: the reply
// carries Status "draining", and health checks want that state, not a
// failure. Health never retries; only a malformed reply errors.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	u := c.base.JoinPath("/healthz")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out Health
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && out.Status == "" {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("HTTP %d", resp.StatusCode), HTTPStatus: resp.StatusCode}
	}
	return &out, nil
}

// Stats returns the daemon's counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.getJSON(ctx, "/stats", url.Values{"buckets": {"0"}}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
