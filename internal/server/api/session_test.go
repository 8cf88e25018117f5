package api

import (
	"net/url"
	"reflect"
	"testing"
)

// FuzzSessionQuery fuzzes the session query decoder: whatever the query
// string, it either refuses it or returns a configuration that builds a
// tier graph and survives an encode/decode round trip unchanged — the
// property that lets a client, the server and an offline verifier hold one
// configuration.
func FuzzSessionQuery(f *testing.F) {
	f.Add("")
	f.Add("capfrac=0.25&layout=10-45-45&threshold=0")
	f.Add("capacity=1048576&tiers=30-10-20-40@1,2&adaptive=1&aepoch=512&pressure=0.5")
	f.Add("tiers=100&policy=auto&selepoch=256")
	f.Add("tiers=30@lru-70@trrip&attrib=true&events=1&session=tenant-a")
	f.Add("unified=1&policy=trrip:cold=4")
	f.Add("tiers=garbage")
	f.Add("tiers=50-60")
	f.Add("capfrac=NaN&pressure=NaN")
	f.Add("layout=45-10-NaN")
	f.Add("tiers=NaN-50")
	f.Add("capfrac=0x1p-2&pressure=-0&threshold=01")
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Skip()
		}
		cfg, err := ParseSessionQuery(q)
		if err != nil {
			return
		}
		if _, err := cfg.GraphSpec(1 << 20); err != nil {
			t.Fatalf("accepted %q but cannot build it: %v", raw, err)
		}
		again, err := ParseSessionQuery(cfg.Query())
		if err != nil {
			t.Fatalf("%q: re-encoded query %q refused: %v", raw, cfg.Query().Encode(), err)
		}
		if !reflect.DeepEqual(cfg, again) {
			t.Fatalf("%q does not round-trip:\n  decoded: %+v\n  again:   %+v", raw, cfg, again)
		}
	})
}

// TestSessionConfigDefaults: the zero configuration is the paper's (half
// the peak, 45-10-45, single-hit promotion) and encodes to no parameters;
// an explicit threshold 0 is a configuration of its own.
func TestSessionConfigDefaults(t *testing.T) {
	var zero SessionConfig
	if q := zero.Query(); len(q) != 0 {
		t.Errorf("zero config encodes to %q, want no parameters", q.Encode())
	}
	if c, err := zero.Capacity(1000); err != nil || c != 500 {
		t.Errorf("zero config sizes 1000 peak bytes to %d (%v), want 500", c, err)
	}
	spec, err := zero.GraphSpec(1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Tiers[1]; len(spec.Tiers) != 3 || got.Threshold != 1 || !got.PromoteOnAccess {
		t.Errorf("zero config builds %+v, want the 45-10-45@1 chain", spec.Tiers)
	}

	cfg, err := ParseSessionQuery(url.Values{ParamThreshold: {"0"}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Threshold == nil || *cfg.Threshold != 0 {
		t.Fatalf("threshold=0 decoded as %v", cfg.Threshold)
	}
	if spec, _ := cfg.GraphSpec(1000); spec.Tiers[1].Threshold != 0 {
		t.Errorf("threshold=0 builds threshold %d", spec.Tiers[1].Threshold)
	}
	if got := cfg.Query().Get(ParamThreshold); got != "0" {
		t.Errorf("threshold=0 re-encodes as %q", got)
	}
}
