package api

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/attrib"
	"repro/internal/core"
)

// Defaults of the session parameters a SessionConfig leaves unset: the
// paper's operating point (half the unbounded peak, the 45-10-45 layout,
// single-hit promotion).
const (
	DefaultCapFrac   = 0.5
	DefaultLayout    = "45-10-45"
	DefaultThreshold = 1
)

// MaxTenantLen bounds the ParamSession label; it is an opaque key into the
// per-tenant attribution map, not a payload.
const MaxTenantLen = 64

// SessionConfig is one session's replay configuration: the one description
// shared by the HTTP query string of POST /v1/sessions (Query encodes it,
// ParseSessionQuery decodes it), the in-process serving plane, the offline
// verification replay, and ccsim's flags. Every field maps to one query
// parameter; zero values take the defaults above, so the zero config is the
// paper's configuration.
type SessionConfig struct {
	// CapacityBytes, when >0, is the absolute simulated cache capacity; the
	// log then replays as it streams in (ParamCapacity).
	CapacityBytes uint64
	// CapFrac sizes the cache as a fraction of the log's unbounded peak when
	// CapacityBytes is 0; zero means DefaultCapFrac (ParamCapFrac).
	CapFrac float64
	// Layout is the N-P-S percentage split; empty means DefaultLayout
	// (ParamLayout).
	Layout string
	// Threshold is the probation promotion threshold; nil means
	// DefaultThreshold. A pointer, because an explicit 0 is a configuration
	// of its own (ParamThreshold).
	Threshold *uint64
	// Tiers, when set, replays an arbitrary tier graph in core.ParseTierSpec
	// syntax instead of the layout (ParamTiers).
	Tiers string
	// Policy applies a local-policy spec to every tier not already naming
	// one (ParamPolicy).
	Policy string
	// SelEpoch overrides the online policy-selector epoch (ParamSelEpoch).
	SelEpoch uint64
	// Unified replays the single pseudo-circular baseline; it takes
	// precedence over Tiers and Layout (ParamUnified).
	Unified bool
	// Events streams the session's observer events (ParamEvents): over HTTP
	// the response becomes NDJSON, and an attribution ledger emits its
	// classified misses as events too.
	Events bool
	// Adaptive attaches the adaptive split controller (ParamAdaptive).
	Adaptive bool
	// AdaptEpoch overrides the adaptive controller's decision epoch
	// (ParamAdaptEpoch).
	AdaptEpoch uint64
	// Pressure is the load pressure in [0, 1] the adaptive controller starts
	// under (ParamPressure). A served session and its verifying offline
	// replay must carry the same value to decide identically.
	Pressure float64
	// Attrib attaches the attribution ledger: the result carries per-cause
	// miss counts and the session folds into the /v1/attrib aggregate. The
	// ledger only observes, so replay counters are unchanged (ParamAttrib).
	Attrib bool
	// Tenant is the opaque session label (≤MaxTenantLen bytes): attribution
	// also folds into the tenant's aggregate. It never influences the replay
	// (ParamSession).
	Tenant string
}

// ParseSessionQuery decodes and validates the query string of POST
// /v1/sessions. Everything a session could fail on before its first event
// is checked here — in particular the tier graph the configuration builds —
// so a bad configuration is refused before it takes an admission slot.
func ParseSessionQuery(q url.Values) (SessionConfig, error) {
	var c SessionConfig
	for _, p := range []struct {
		name string
		dst  *uint64
	}{
		{ParamCapacity, &c.CapacityBytes},
		{ParamSelEpoch, &c.SelEpoch},
		{ParamAdaptEpoch, &c.AdaptEpoch},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return c, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get(ParamThreshold); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return c, fmt.Errorf("bad %s %q", ParamThreshold, v)
		}
		c.Threshold = &n
	}
	// The negated range tests also refuse NaN.
	if v := q.Get(ParamCapFrac); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0 && f <= 16) {
			return c, fmt.Errorf("bad %s %q", ParamCapFrac, v)
		}
		c.CapFrac = f
	}
	if v := q.Get(ParamPressure); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 0 && f <= 1) {
			return c, fmt.Errorf("bad %s %q", ParamPressure, v)
		}
		c.Pressure = f
	}
	for _, p := range []struct {
		name string
		dst  *bool
	}{
		{ParamUnified, &c.Unified},
		{ParamEvents, &c.Events},
		{ParamAdaptive, &c.Adaptive},
		{ParamAttrib, &c.Attrib},
	} {
		if v := q.Get(p.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return c, fmt.Errorf("bad %s %q", p.name, v)
			}
			*p.dst = b
		}
	}
	// String parameters are checked on their own even where the rest of the
	// configuration would ignore them (a layout under tiers=, tiers under
	// unified=1, a policy every tier overrides).
	c.Layout = q.Get(ParamLayout)
	if c.Layout != "" {
		if _, err := ParseLayout(c.Layout); err != nil {
			return c, err
		}
	}
	c.Tiers = q.Get(ParamTiers)
	if c.Tiers != "" {
		if _, err := core.ParseTierSpec(c.Tiers, 1); err != nil {
			return c, fmt.Errorf("bad %s %q: %w", ParamTiers, c.Tiers, err)
		}
	}
	c.Policy = q.Get(ParamPolicy)
	if c.Policy != "" {
		probe := core.UnifiedSpec(1, nil)
		probe.Tiers[0].Policy = c.Policy
		if err := probe.Validate(); err != nil {
			return c, fmt.Errorf("bad %s %q: %w", ParamPolicy, c.Policy, err)
		}
	}
	c.Tenant = q.Get(ParamSession)
	if len(c.Tenant) > MaxTenantLen {
		return c, fmt.Errorf("bad %s: label longer than %d bytes", ParamSession, MaxTenantLen)
	}
	// The capacity only scales the graph, so building it over one byte
	// catches every remaining combination that could not be replayed.
	if _, err := c.GraphSpec(1); err != nil {
		return c, err
	}
	return c, nil
}

// Query encodes the configuration as POST /v1/sessions query parameters,
// omitting unset fields. ParseSessionQuery(c.Query()) returns c: floats use
// the shortest formatting that parses back to the same value.
func (c SessionConfig) Query() url.Values {
	q := url.Values{}
	set := func(name, v string, ok bool) {
		if ok {
			q.Set(name, v)
		}
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	set(ParamCapacity, u(c.CapacityBytes), c.CapacityBytes > 0)
	set(ParamCapFrac, f(c.CapFrac), c.CapFrac != 0)
	set(ParamLayout, c.Layout, c.Layout != "")
	if c.Threshold != nil {
		q.Set(ParamThreshold, u(*c.Threshold))
	}
	set(ParamTiers, c.Tiers, c.Tiers != "")
	set(ParamPolicy, c.Policy, c.Policy != "")
	set(ParamSelEpoch, u(c.SelEpoch), c.SelEpoch > 0)
	set(ParamUnified, "1", c.Unified)
	set(ParamEvents, "1", c.Events)
	set(ParamAdaptive, "1", c.Adaptive)
	set(ParamAdaptEpoch, u(c.AdaptEpoch), c.AdaptEpoch > 0)
	set(ParamPressure, f(c.Pressure), c.Pressure != 0)
	set(ParamAttrib, "1", c.Attrib)
	set(ParamSession, c.Tenant, c.Tenant != "")
	return q
}

// Capacity is the cache size the session simulates for a log whose
// unbounded peak (tracelog.Summary.MaxLiveBytes) is maxLive bytes:
// CapacityBytes when set, else CapFrac of the peak.
func (c SessionConfig) Capacity(maxLive uint64) (uint64, error) {
	if c.CapacityBytes > 0 {
		return c.CapacityBytes, nil
	}
	frac := c.CapFrac
	if frac == 0 {
		frac = DefaultCapFrac
	}
	capacity := uint64(float64(maxLive) * frac)
	if capacity == 0 {
		return 0, errors.New("log has no live trace bytes to size a cache from")
	}
	return capacity, nil
}

// GraphSpec builds the tier graph the configuration replays over capacity
// bytes. It is the one place a configuration turns into a manager: every
// served session, every offline verification replay and every ccsim replay
// constructs its manager as core.NewGraph over this spec, so they agree by
// construction. The spec is validated. Pressure is not part of it: it is
// controller input, set on the built graph (core.Graph.SetLoadPressure).
func (c SessionConfig) GraphSpec(capacity uint64) (core.GraphSpec, error) {
	var spec core.GraphSpec
	switch {
	case c.Unified:
		spec = core.UnifiedSpec(capacity, nil)
	case c.Tiers != "":
		var err error
		if spec, err = core.ParseTierSpec(c.Tiers, capacity); err != nil {
			return core.GraphSpec{}, err
		}
	default:
		layout := c.Layout
		if layout == "" {
			layout = DefaultLayout
		}
		fracs, err := ParseLayout(layout)
		if err != nil {
			return core.GraphSpec{}, err
		}
		threshold := uint64(DefaultThreshold)
		if c.Threshold != nil {
			threshold = *c.Threshold
		}
		spec = core.Config{
			TotalCapacity:    capacity,
			NurseryFrac:      fracs[0],
			ProbationFrac:    fracs[1],
			PersistentFrac:   fracs[2],
			PromoteThreshold: threshold,
			PromoteOnAccess:  threshold <= 1,
		}.GraphSpec()
	}
	if c.Policy != "" {
		for i := range spec.Tiers {
			if spec.Tiers[i].Policy == "" {
				spec.Tiers[i].Policy = c.Policy
			}
		}
	}
	if c.SelEpoch > 0 {
		spec.Selector = &core.SelectorConfig{Epoch: c.SelEpoch}
	}
	if c.Adaptive {
		spec.Adaptive = &core.AdaptiveConfig{Epoch: c.AdaptEpoch}
	}
	if c.Attrib {
		// Cause events reach an event stream only when there is one; a plain
		// attrib session aggregates silently.
		spec.Attrib = &attrib.Config{EmitEvents: c.Events}
	}
	if err := spec.Validate(); err != nil {
		return core.GraphSpec{}, err
	}
	return spec, nil
}

// ParseLayout parses an N-P-S percentage split ("45-10-45") into fractions.
// It is the one layout grammar of the system: ccsim's -layout flag and the
// service's layout parameter both resolve through it.
func ParseLayout(s string) ([3]float64, error) {
	var res [3]float64
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return res, fmt.Errorf("layout %q must be N-P-S percentages", s)
	}
	sum := 0.0
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || !(v > 0) {
			return res, fmt.Errorf("bad layout component %q", p)
		}
		res[i] = v / 100
		sum += v
	}
	if !(sum >= 99.5 && sum <= 100.5) {
		return res, fmt.Errorf("layout %q must sum to 100", s)
	}
	return res, nil
}
