package server_test

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/api"
)

// TestServedConfigsMatchOffline: a session configured through the Go client
// (over HTTP) or ServeSession (in process) replays exactly what
// OfflineReplay of the same SessionConfig replays. The configurations are
// the ones an encode/decode mismatch would break: an explicit threshold 0,
// which differs from the default 1, and a selector epoch, which the client
// must carry.
func TestServedConfigsMatchOffline(t *testing.T) {
	zero := uint64(0)
	data := syntheticLog(t, "eon")
	for _, tc := range []struct {
		name   string
		cfg    api.SessionConfig
		config string // the replayed configuration's label
	}{
		{"threshold0", api.SessionConfig{Threshold: &zero}, "generational/45-10-45@0"},
		{"selepoch", api.SessionConfig{Tiers: "100", Policy: "auto", SelEpoch: 64}, "unified/auto"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			offline, err := server.OfflineReplay(tc.cfg, nil, data)
			if err != nil {
				t.Fatal(err)
			}
			if offline.Config != tc.config {
				t.Fatalf("offline replay ran %q, want %q", offline.Config, tc.config)
			}

			_, c := newTestServer(t, server.Config{})
			served, err := c.Session(context.Background(), tc.cfg, bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !server.ResultsEquivalent(served, offline) {
				t.Errorf("HTTP session diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, served)
			}

			srv, err := server.New(server.Config{Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			inproc, err := srv.ServeSession(tc.cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			if !server.ResultsEquivalent(inproc, offline) {
				t.Errorf("ServeSession diverges from offline replay:\n  offline: %+v\n  served:  %+v", offline, inproc)
			}
		})
	}

	// The selector epoch must matter on this log, or the case above could
	// not tell a dropped parameter from a carried one.
	with, err := server.OfflineReplay(api.SessionConfig{Tiers: "100", Policy: "auto", SelEpoch: 64}, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	without, err := server.OfflineReplay(api.SessionConfig{Tiers: "100", Policy: "auto"}, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if with == without {
		t.Error("selepoch=64 replays identically to the default epoch; pick a log it changes")
	}
}

// TestBadConfigRefusedBeforeAdmission: a configuration that cannot be
// replayed is refused with 400 while every admission slot and queue
// position is taken — so it was decided before admission — and does not
// count as a failed session.
func TestBadConfigRefusedBeforeAdmission(t *testing.T) {
	_, c := newTestServer(t, server.Config{MaxSessions: 1, QueueDepth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	release := holdSessions(ctx, t, c, 2)
	defer release()

	for _, q := range []string{
		api.ParamTiers + "=garbage",
		api.ParamTiers + "=50-60",
		api.ParamPolicy + "=nope",
		api.ParamLayout + "=45-10-45.3", // a valid layout grammar whose split does not sum to 1
	} {
		resp, err := http.Post(c.BaseURL+api.SessionsPath+"?"+q, "application/octet-stream", bytes.NewReader(syntheticLog(t, "gzip")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d", q, resp.StatusCode, http.StatusBadRequest)
		}
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "\ngencached_sessions_failed_total 0\n") {
		t.Errorf("refused configurations counted as failed sessions:\n%s", metrics)
	}
}
