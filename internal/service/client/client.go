// Package client is the Go client for floptd's v1 HTTP API. It is the
// only sanctioned HTTP path to a floptd node — the bundled load
// generator and the cluster's peer-to-peer calls both go through it —
// so wire-format knowledge (routes, envelopes, Retry-After hints) lives
// here and in internal/service/api, nowhere else. A request is sent
// once; a shed (429/503) response comes back as an *APIError carrying
// the server's hint, and the caller decides whether to try again.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"flopt/internal/service/api"
)

// Sentinel errors, one per api error code. Every non-2xx response
// decodes to an *APIError that wraps the matching sentinel, so callers
// branch with errors.Is(err, client.ErrThrottled) instead of matching
// status integers.
var (
	ErrBadRequest    = errors.New("floptd: bad request")
	ErrNotFound      = errors.New("floptd: not found")
	ErrUnprocessable = errors.New("floptd: unprocessable program")
	ErrThrottled     = errors.New("floptd: throttled")
	ErrUnavailable   = errors.New("floptd: unavailable")
	ErrInternal      = errors.New("floptd: internal server error")
)

// APIError is a decoded error envelope plus its HTTP status. It wraps
// the sentinel for its code, so errors.Is works through it.
type APIError struct {
	Status      int
	Code        string
	Message     string
	RetryAfterS int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("floptd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Is matches the sentinel corresponding to the error's code, falling
// back to the status class when the envelope carried no code.
func (e *APIError) Is(target error) bool {
	return target == e.sentinel()
}

func (e *APIError) sentinel() error {
	switch e.Code {
	case api.CodeBadRequest:
		return ErrBadRequest
	case api.CodeNotFound:
		return ErrNotFound
	case api.CodeUnprocessable:
		return ErrUnprocessable
	case api.CodeOverload:
		return ErrThrottled
	case api.CodeUnavailable:
		return ErrUnavailable
	case api.CodeInternal:
		return ErrInternal
	}
	switch {
	case e.Status == http.StatusTooManyRequests:
		return ErrThrottled
	case e.Status == http.StatusNotFound:
		return ErrNotFound
	case e.Status >= 500:
		return ErrUnavailable
	default:
		return ErrBadRequest
	}
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithHeader attaches a static header to every request — cluster peers
// use it to mark forwarded traffic so the receiving node never
// re-forwards (loop prevention).
func WithHeader(key, value string) Option {
	return func(c *Client) { c.headers[key] = value }
}

// ctxHeaderKey carries per-request headers through a context.
type ctxHeaderKey struct{}

// ContextWithHeader returns a context that makes every client request
// carried under it send the given header. Calls stack: each adds one
// header on top of those already in ctx. The load generator stamps SLO
// class and client identity this way, and the cluster forward paths use
// it to propagate those headers to the executing node without widening
// every client method's signature.
func ContextWithHeader(ctx context.Context, key, value string) context.Context {
	prev, _ := ctx.Value(ctxHeaderKey{}).(map[string]string)
	m := make(map[string]string, len(prev)+1)
	for k, v := range prev {
		m[k] = v
	}
	m[key] = value
	return context.WithValue(ctx, ctxHeaderKey{}, m)
}

// Client talks to one floptd node.
type Client struct {
	base    string
	hc      *http.Client
	headers map[string]string
}

// New builds a client for the node at baseURL (scheme://host[:port],
// no trailing path).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		headers: map[string]string{},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the node URL the client was built for.
func (c *Client) BaseURL() string { return c.base }

// Compile submits a program for layout compilation and returns the
// compile summary (content-addressed layout ID, per-array placements).
func (c *Client) Compile(ctx context.Context, req *api.CompileRequest) (*api.CompileResponse, error) {
	var out api.CompileResponse
	if err := c.do(ctx, http.MethodPost, "/"+api.V1+"/compile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Offsets resolves element coordinates to device offsets under a
// compiled layout.
func (c *Client) Offsets(ctx context.Context, layoutID string, req *api.OffsetsRequest) (*api.OffsetsResponse, error) {
	var out api.OffsetsResponse
	path := "/" + api.V1 + "/layouts/" + url.PathEscape(layoutID) + "/offsets"
	if err := c.do(ctx, http.MethodPost, path, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate enqueues an asynchronous simulation job and returns its
// accepted job record (poll with JobStatus).
func (c *Client) Simulate(ctx context.Context, req *api.SimulateRequest) (*api.JobResponse, error) {
	var out api.JobResponse
	if err := c.do(ctx, http.MethodPost, "/"+api.V1+"/simulate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobStatus fetches the current state of an asynchronous job.
func (c *Client) JobStatus(ctx context.Context, jobID string) (*api.JobResponse, error) {
	var out api.JobResponse
	path := "/" + api.V1 + "/jobs/" + url.PathEscape(jobID)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// LayoutRecord fetches the compiled-layout record (source + config) a
// peer needs to rebuild and verify the layout locally.
func (c *Client) LayoutRecord(ctx context.Context, layoutID string) (*api.LayoutRecord, error) {
	var out api.LayoutRecord
	path := "/" + api.V1 + "/layouts/" + url.PathEscape(layoutID)
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClusterStatus fetches the node's view of the cluster: roster, ring
// shares, health, and per-node load.
func (c *Client) ClusterStatus(ctx context.Context) (*api.ClusterStatusResponse, error) {
	var out api.ClusterStatusResponse
	if err := c.do(ctx, http.MethodGet, "/"+api.V1+"/cluster/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do runs one request: marshal, send, decode.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("floptd: encode request: %w", err)
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("floptd: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range c.headers {
		req.Header.Set(k, v)
	}
	if m, ok := ctx.Value(ctxHeaderKey{}).(map[string]string); ok {
		for k, v := range m {
			req.Header.Set(k, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("floptd: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("floptd: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError turns a non-2xx response into an *APIError, preferring
// the JSON envelope but surviving non-JSON bodies (proxies, panics).
func decodeError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode, Code: api.CodeForStatus(resp.StatusCode)}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env api.Error
	if json.Unmarshal(raw, &env) == nil && env.Message != "" {
		ae.Message = env.Message
		if env.Code != "" {
			ae.Code = env.Code
		}
		ae.RetryAfterS = env.RetryAfterS
	} else {
		ae.Message = strings.TrimSpace(string(raw))
		if ae.Message == "" {
			ae.Message = resp.Status
		}
	}
	if ae.RetryAfterS == 0 {
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			ae.RetryAfterS = s
		}
	}
	return ae
}
