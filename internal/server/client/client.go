// Package client is the Go client of the gencached service: it opens
// sessions (streaming a tracelog body up, decoding the result), polls
// health, and synthesizes workload logs for load generation. The gencached
// loadtest subcommand and the server's integration tests are its consumers.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dbt"
	"repro/internal/server/api"
	"repro/internal/simclock"
	"repro/internal/tracelog"
	"repro/internal/workload"
)

// ErrOverloaded is returned by Session when the server refused admission
// with 429, wrapped with the server's message (its admission limits) when
// the response carries one; callers test for it with errors.Is, back off and
// retry.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrDraining is returned by Session when the server is shutting down.
var ErrDraining = errors.New("client: server draining")

// Client talks to one gencached server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient is the transport; nil uses a client with no timeout
	// (sessions stream arbitrarily long bodies).
	HTTPClient *http.Client
	// Clock is the client's time plane for deadlines and backoff pacing;
	// nil means the wall clock. Load drivers inject their own so pacing is
	// part of the same (possibly virtual) timeline as everything else.
	Clock simclock.Clock
	// BinaryStats requests the compact binary result framing
	// (api.StatsContentType) instead of JSON. The decoded result is
	// identical; the response is smaller and cheaper to parse.
	BinaryStats bool
}

// New returns a client for the given base URL.
func New(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) clock() simclock.Clock { return simclock.Default(c.Clock) }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{}
}

// SessionOptions is a session's configuration; api.SessionConfig is the
// type, this name stays for existing callers.
type SessionOptions = api.SessionConfig

// Session streams body (a tracelog log, either framing) to the server and
// returns the session's result. It does not read event streams, so it
// refuses cfg.Events.
func (c *Client) Session(ctx context.Context, cfg api.SessionConfig, body io.Reader) (api.SessionResult, error) {
	var out api.SessionResult
	if cfg.Events {
		return out, errors.New("client: Session reads a result, not an events stream")
	}
	u := c.BaseURL + api.SessionsPath
	if q := cfg.Query().Encode(); q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if c.BinaryStats {
		req.Header.Set("Accept", api.StatsContentType)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if resp.Header.Get("Content-Type") == api.StatsContentType {
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return out, fmt.Errorf("client: reading result: %w", err)
			}
			if err := out.UnmarshalBinary(data); err != nil {
				return out, fmt.Errorf("client: decoding result: %w", err)
			}
			return out, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return out, fmt.Errorf("client: decoding result: %w", err)
		}
		return out, nil
	case http.StatusTooManyRequests:
		if msg := readError(resp.Body); msg != "" {
			return out, fmt.Errorf("%w: %s", ErrOverloaded, msg)
		}
		return out, ErrOverloaded
	case http.StatusServiceUnavailable:
		return out, ErrDraining
	default:
		return out, fmt.Errorf("client: %s: %s", resp.Status, readError(resp.Body))
	}
}

// readError extracts the server's JSON error message, falling back to the
// raw body.
func readError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	var e api.Error
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// Health polls /healthz. It decodes the body regardless of status: a
// draining server answers 503 with a valid Health document.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("client: decoding health: %w", err)
	}
	return h, nil
}

// WaitHealthy polls /healthz until the server answers or the deadline
// passes — the loadtest's startup barrier. Both the deadline and the retry
// pacing run on the client's clock.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	clk := c.clock()
	start := clk.Now()
	for {
		if _, err := c.Health(ctx); err == nil {
			return nil
		} else if clk.Since(start) > timeout {
			return fmt.Errorf("client: server not healthy after %s: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(50 * time.Millisecond):
		}
	}
}

// AttribReport fetches the server-wide miss-cause report. query is the raw
// query string ("cause=capacity&top=5"), empty for the unfiltered report.
func (c *Client) AttribReport(ctx context.Context, query string) (api.AttribReport, error) {
	var rep api.AttribReport
	u := c.BaseURL + api.AttribPath
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return rep, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("client: %s: %s", resp.Status, readError(resp.Body))
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("client: decoding attrib report: %w", err)
	}
	return rep, nil
}

// Metrics fetches the raw /metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// SyntheticLog synthesizes a benchmark workload and runs it under the
// engine with an unbounded cache, returning the serialized event log —
// exactly what `tracegen -bench <name> -scale <scale>` writes to disk, but
// in memory, so load generators need no fixture files.
func SyntheticLog(bench string, scale float64) ([]byte, error) {
	p, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("client: unknown benchmark %q", bench)
	}
	b, err := workload.Synthesize(p.Scaled(scale))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := tracelog.NewWriter(&buf, tracelog.Header{
		Benchmark:      p.Name,
		DurationMicros: p.DurationMicros(),
	})
	if err != nil {
		return nil, err
	}
	mgr := core.NewUnified(1<<40, nil, nil)
	eng, err := dbt.New(b.Image, dbt.Config{Manager: mgr, Log: w})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(b.NewDriver(), 0); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
