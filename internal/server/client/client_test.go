package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server/api"
)

// TestSessionOverloadedCarriesMessage: a 429 surfaces as ErrOverloaded with
// the server's reported admission limits attached, and a bodiless 429 as the
// bare sentinel.
func TestSessionOverloadedCarriesMessage(t *testing.T) {
	const msg = "session limit reached (limits: 2 running, 4 queued)"
	for _, tc := range []struct {
		name, body, want string
	}{
		{"with message", msg, msg},
		{"empty body", "", ErrOverloaded.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusTooManyRequests)
				if tc.body != "" {
					_ = json.NewEncoder(w).Encode(api.Error{Error: tc.body})
				}
			}))
			defer srv.Close()
			_, err := New(srv.URL).Session(context.Background(), api.SessionConfig{}, bytes.NewReader(nil))
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}
