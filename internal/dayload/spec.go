// Package dayload is the production-day timeline engine: a declarative
// description of one day of service traffic — diurnal session-arrival
// curves per benchmark mix, scheduled deploy events that mass-unmap
// modules, flash-crowd bursts — compiled into a deterministic discrete-event
// schedule and driven against an in-process gencached server on a virtual
// clock. Everything the day produces (per-interval timeline CSV, merged
// NDJSON event stream, end-of-day report) is bit-reproducible: same spec,
// same seed, same bytes.
//
// The paper's generational design is motivated by time-varying trace
// populations; the day engine is where that variation actually happens.
// Static replays measure a policy at one fixed operating point — the day
// sweeps the operating point through troughs, peaks, deploys, and crowds,
// which is the regime where adaptive control (autoscaled admission,
// load-reactive splits, online policy selection) can earn its keep or be
// shown not to.
package dayload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/server/api"
)

// Spec declares one production day.
type Spec struct {
	// Name labels the day in reports.
	Name string
	// Seed drives every random draw of the compilation (arrival jitter,
	// crowd placement). Same seed, same schedule.
	Seed int64
	// DayLength is the declared span of the day (default 24h). All other
	// declared times (Interval, Deploy.At, Crowd.At) live on this plane.
	DayLength time.Duration
	// TimeScale compresses the declared day onto the virtual clock: a 24h
	// day at TimeScale 720 runs as a 2-minute virtual day. Default 1.
	TimeScale float64
	// Interval is the reporting granularity in declared time (default 1h):
	// one timeline CSV row per interval.
	Interval time.Duration
	// Scale is the workload synthesis scale for every mix's benchmark
	// (default 0.05 — the day replays many sessions, so each is small).
	Scale float64
	// Mixes are the benchmark populations arriving through the day.
	Mixes []Mix
	// Deploys are scheduled maintenance events: at the given declared time,
	// every module of the benchmark is unmapped from the server's keep-warm
	// owner, draining its published traces — the production "new binary
	// rolled out, yesterday's traces are dead code" moment.
	Deploys []Deploy
	// Crowds are flash bursts: extra arrivals of one benchmark compressed
	// into a short window.
	Crowds []Crowd
}

// Mix is one benchmark population with its diurnal arrival curve.
type Mix struct {
	// Bench names a workload profile (workload.ByName).
	Bench string
	// Sessions is how many sessions of this mix arrive over the day.
	Sessions int
	// Hourly weights arrivals across 24 equal slices of the day; zero-value
	// curves default to flat. Only relative magnitude matters.
	Hourly [24]float64
	// Config is the session configuration every arrival of this mix uses.
	// The engine may add Adaptive and Pressure on top (load-reactive arms).
	Config api.SessionConfig
}

// Deploy is one scheduled module-unmap event.
type Deploy struct {
	// At is the declared time offset into the day.
	At time.Duration
	// Bench is the benchmark whose modules unmap.
	Bench string
}

// Crowd is one flash-crowd burst.
type Crowd struct {
	// At is the declared start of the burst.
	At time.Duration
	// Duration is the declared length of the burst.
	Duration time.Duration
	// Bench names the workload profile the crowd replays.
	Bench string
	// Sessions is how many extra arrivals the burst injects.
	Sessions int
	// Config is the burst sessions' configuration.
	Config api.SessionConfig
}

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "day"
	}
	if s.DayLength == 0 {
		s.DayLength = 24 * time.Hour
	}
	if s.TimeScale == 0 {
		s.TimeScale = 1
	}
	if s.Interval == 0 {
		s.Interval = time.Hour
	}
	if s.Scale == 0 {
		s.Scale = 0.05
	}
	return s
}

// Diurnal builds an hourly curve with a trough-to-peak swing: weight base
// away from peakHour, rising cosine-shaped to peak at peakHour. It is the
// stock "office hours" arrival shape of the standard day.
func Diurnal(peakHour int, base, peak float64) [24]float64 {
	var h [24]float64
	for i := range h {
		// Distance from the peak hour on the 24h circle, 0..12.
		d := i - peakHour
		if d < 0 {
			d = -d
		}
		if d > 12 {
			d = 24 - d
		}
		// Linear ramp from peak at d=0 to base at d=12.
		h[i] = peak - (peak-base)*float64(d)/12
	}
	return h
}

// arrival is one compiled session arrival.
type arrival struct {
	at    time.Duration // declared offset into the day
	bench string
	cfg   api.SessionConfig
	crowd bool
	seq   int // global arrival index, assigned after sorting
}

// compile turns the declarative spec into the day's sorted arrival
// schedule. All randomness comes from the spec's seeded generator, drawn in
// a fixed order (mixes in declaration order, then crowds), so the schedule
// is a pure function of the spec.
func (s Spec) compile() ([]arrival, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	var arrs []arrival
	slice := s.DayLength / 24
	for mi, m := range s.Mixes {
		if m.Sessions <= 0 {
			return nil, fmt.Errorf("dayload: mix %d (%s) has no sessions", mi, m.Bench)
		}
		h := m.Hourly
		var sum float64
		for _, w := range h {
			if w < 0 {
				return nil, fmt.Errorf("dayload: mix %d (%s) has a negative hourly weight", mi, m.Bench)
			}
			sum += w
		}
		if sum == 0 {
			for i := range h {
				h[i] = 1
			}
			sum = 24
		}
		for i := 0; i < m.Sessions; i++ {
			// Weighted hour draw, then uniform jitter within the hour.
			x := rng.Float64() * sum
			hour := 0
			for x >= h[hour] && hour < 23 {
				x -= h[hour]
				hour++
			}
			at := time.Duration(hour)*slice + time.Duration(rng.Float64()*float64(slice))
			arrs = append(arrs, arrival{at: at, bench: m.Bench, cfg: m.Config})
		}
	}
	for ci, c := range s.Crowds {
		if c.Sessions <= 0 {
			return nil, fmt.Errorf("dayload: crowd %d (%s) has no sessions", ci, c.Bench)
		}
		d := c.Duration
		if d <= 0 {
			d = s.DayLength / 96 // a 15-minute burst on a 24h day
		}
		for i := 0; i < c.Sessions; i++ {
			at := c.At + time.Duration(rng.Float64()*float64(d))
			if at > s.DayLength {
				at = s.DayLength
			}
			arrs = append(arrs, arrival{at: at, bench: c.Bench, cfg: c.Config, crowd: true})
		}
	}
	// Deterministic order: by time, ties broken by the stable pre-sort
	// order (mix declaration order, then crowds, then draw order).
	sort.SliceStable(arrs, func(i, j int) bool { return arrs[i].at < arrs[j].at })
	for i := range arrs {
		arrs[i].seq = i
	}
	return arrs, nil
}

// Arrival is one compiled session arrival, in schedule order — the exported
// face of the schedule for drivers that pace sessions themselves (the
// loadtest client compiles its work list through a flat Spec).
type Arrival struct {
	// At is the declared offset into the day.
	At time.Duration
	// Bench is the workload profile the session replays.
	Bench string
	// Config is the session's configuration.
	Config api.SessionConfig
	// Crowd marks flash-crowd arrivals.
	Crowd bool
	// Seq is the global arrival index.
	Seq int
}

// Arrivals compiles the spec and returns the day's schedule.
func (s Spec) Arrivals() ([]Arrival, error) {
	arrs, err := s.withDefaults().compile()
	if err != nil {
		return nil, err
	}
	out := make([]Arrival, len(arrs))
	for i, a := range arrs {
		out[i] = Arrival{At: a.at, Bench: a.bench, Config: a.cfg, Crowd: a.crowd, Seq: a.seq}
	}
	return out, nil
}

// StandardDay is the stock production day: a diurnal two-benchmark office
// load, an off-peak deploy of the primary benchmark, and an evening flash
// crowd of a third. Sessions count scales the whole day's traffic.
func StandardDay(seed int64, sessions int) Spec {
	if sessions <= 0 {
		sessions = 120
	}
	primary := sessions * 6 / 10
	secondary := sessions * 3 / 10
	crowd := sessions - primary - secondary
	if crowd < 1 {
		crowd = 1
	}
	return Spec{
		Name: "standard-day",
		Seed: seed,
		Mixes: []Mix{
			{Bench: "gzip", Sessions: primary, Hourly: Diurnal(14, 0.2, 1)},
			{Bench: "word", Sessions: secondary, Hourly: Diurnal(10, 0.3, 1)},
		},
		Deploys: []Deploy{
			{At: 4 * time.Hour, Bench: "gzip"}, // the 4am deploy window
		},
		Crowds: []Crowd{
			{At: 20 * time.Hour, Duration: time.Hour, Bench: "solitaire", Sessions: crowd},
		},
	}
}
