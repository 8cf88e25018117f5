// Package stats provides the small statistical toolkit the evaluation needs:
// counters, bucketed histograms, trace-lifetime tracking (Equation 2 of the
// paper), arithmetic and geometric means, and plain-text table rendering for
// the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive values are skipped,
// mirroring how the paper's overhead-ratio geomean is computed over strictly
// positive ratios. Returns 0 if no positive values remain.
func GeoMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// Histogram counts values in equal-width buckets over [min, max). Values
// outside the range are clamped into the first or last bucket.
type Histogram struct {
	Min, Max float64
	Counts   []uint64
	N        uint64
}

// NewHistogram creates a histogram with the given number of buckets.
func NewHistogram(min, max float64, buckets int) *Histogram {
	if buckets <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	if max <= min {
		panic("stats: histogram needs max > min")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]uint64, buckets)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := h.Bucket(x)
	h.Counts[i]++
	h.N++
}

// Bucket returns the bucket index x falls into. NaN lands in bucket 0.
func (h *Histogram) Bucket(x float64) int {
	if math.IsNaN(x) || x < h.Min {
		return 0
	}
	i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
	if i >= len(h.Counts) || i < 0 { // i < 0 on +Inf overflow
		i = len(h.Counts) - 1
	}
	return i
}

// Fraction returns the fraction of observations in bucket i (0 when empty).
func (h *Histogram) Fraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}

// FractionBetween returns the fraction of observations whose value lies in
// buckets fully covering [lo, hi).
func (h *Histogram) FractionBetween(lo, hi float64) float64 {
	if h.N == 0 {
		return 0
	}
	var c uint64
	for i := range h.Counts {
		bucketLo := h.Min + (h.Max-h.Min)*float64(i)/float64(len(h.Counts))
		bucketHi := h.Min + (h.Max-h.Min)*float64(i+1)/float64(len(h.Counts))
		if bucketLo >= lo && bucketHi <= hi {
			c += h.Counts[i]
		}
	}
	return float64(c) / float64(h.N)
}

// Lifetimes tracks the first and last use time of each trace and computes
// the paper's Equation 2:
//
//	lifetime_i = (lastExecution_i - firstExecution_i) / totalApplicationExecutionTime
type Lifetimes struct {
	spans map[uint64]span
}

// span is one trace's first and last use time.
type span struct{ first, last float64 }

// NewLifetimes returns an empty lifetime tracker.
func NewLifetimes() *Lifetimes {
	return &Lifetimes{spans: make(map[uint64]span)}
}

// Touch records that trace id was executed at time t. A trace's last use
// time starts at 0 and only moves forward.
func (l *Lifetimes) Touch(id uint64, t float64) {
	s, ok := l.spans[id]
	if ok && t <= s.last {
		return
	}
	if !ok {
		s.first = t
	}
	if t > s.last {
		s.last = t
	}
	l.spans[id] = s
}

// Len returns the number of distinct traces observed.
func (l *Lifetimes) Len() int { return len(l.spans) }

// Histogram buckets the lifetimes of all observed traces into the given
// number of equal-width buckets of fractional lifetime, given the total
// execution time. A zero or negative total yields an empty histogram.
func (l *Lifetimes) Histogram(total float64, buckets int) *Histogram {
	h := NewHistogram(0, 1, buckets)
	if total <= 0 {
		return h
	}
	for _, s := range l.spans {
		h.Add((s.last - s.first) / total)
	}
	return h
}

// Fractions returns the fraction of traces with fractional lifetime below
// lo (short-lived), between lo and hi, and above hi (long-lived).
func (l *Lifetimes) Fractions(total, lo, hi float64) (short, mid, long float64) {
	if total <= 0 || len(l.spans) == 0 {
		return 0, 0, 0
	}
	n := float64(len(l.spans))
	for _, s := range l.spans {
		lt := (s.last - s.first) / total
		switch {
		case lt < lo:
			short++
		case lt > hi:
			long++
		default:
			mid++
		}
	}
	return short / n, mid / n, long / n
}

// Table renders rows of cells as an aligned plain-text table with a header.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Header) {
		cells = cells[:len(t.Header)]
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out []byte
	writeRow := func(cells []string) {
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				out = append(out, ' ', ' ')
			}
			out = append(out, fmt.Sprintf("%-*s", widths[i], c)...)
		}
		out = append(out, '\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return string(out)
}

// FmtBytes renders a byte count with a binary unit suffix, matching how the
// paper reports cache sizes (KB, MB).
func FmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// FmtPct renders a fraction as a percentage.
func FmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// FmtCount renders an integer with thousands separators.
func FmtCount(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
