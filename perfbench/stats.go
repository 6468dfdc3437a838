package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The tail of a sample set is the highest of these that still
// has at least minBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps binary rounding of p (99.9 is inexact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted (0 when
// empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples beyond it. ok is false when even the median
// has fewer, in which case 50 is returned.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// samples is a set of measurements in one unit, kept in arrival order.
type samples struct {
	v      []float64
	sorted []float64 // v sorted, built on first percentile query
}

func (d *samples) add(x float64) {
	d.v = append(d.v, x)
	d.sorted = nil
}

func (d *samples) addDur(x time.Duration, unit time.Duration) {
	d.add(float64(x) / float64(unit))
}

func (d *samples) n() int { return len(d.v) }

func (d *samples) pct(p float64) float64 {
	if d.sorted == nil {
		d.sorted = append([]float64(nil), d.v...)
		sort.Float64s(d.sorted)
	}
	return percentile(d.sorted, p)
}

func (d *samples) p50() float64 { return d.pct(50) }

// tail returns the value at the tail percentile and which percentile
// that is.
func (d *samples) tail() (v, p float64, ok bool) {
	p, ok = tailPercentile(d.n())
	return d.pct(p), p, ok
}

// windowed cuts the samples, in arrival order, into consecutive windows
// of per samples (a shorter last window is dropped unless it is the only
// one) and returns the median over windows of each window's statistic.
// A burst of host noise then moves one window, not the result.
func (d *samples) windowed(per int, stat func(*samples) float64) (v float64, windows int) {
	var vals []float64
	for i := 0; i < len(d.v); i += per {
		if i+per > len(d.v) && i > 0 {
			break
		}
		w := samples{v: d.v[i:min(i+per, len(d.v))]}
		vals = append(vals, stat(&w))
	}
	return median(vals), len(vals)
}

// median of xs, the mean of the middle two when their number is even
// (0 when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts the operations a workload attempted and how many failed:
// an operation fails when it errors or when its output check does.
type tally struct {
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// correct reports whether the run produced checkable output and every
// operation passed its check.
func (t *tally) correct() bool { return t.attempted > 0 && t.failed == 0 }

// pacer issues operations on a fixed schedule (an open loop): operation
// i is due at start + i*interval whatever happened to earlier ones, so a
// stall shows up as latency on every operation queued behind it. now and
// sleep are the clock, replaceable in tests.
type pacer struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, interval time.Duration) *pacer {
	return &pacer{start: start, interval: interval, now: time.Now, sleep: time.Sleep}
}

// due is when operation i should be sent.
func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait blocks until operation i is due and returns its due time and how
// late the generator actually got to it (never negative).
func (p *pacer) wait(i int) (due time.Time, late time.Duration) {
	due = p.due(i)
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	late = p.now().Sub(due)
	if late < 0 {
		late = 0
	}
	return due, late
}
