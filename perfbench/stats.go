package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation. A failed or refused operation keeps
// failed set: it sorts above every success, so it misses every latency
// limit, and it counts toward failed_share.
type sample struct {
	d      time.Duration
	failed bool
	at     time.Duration // completion, as an offset from the pass's start
	n      int64         // reports the system accepted with this operation
}

// sortSamples orders successes by duration, then failures by duration.
func sortSamples(s []sample) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].failed != s[j].failed {
			return !s[i].failed
		}
		return s[i].d < s[j].d
	})
}

// rankIndex is the nearest-rank index of quantile q (0 < q <= 1) among n
// sorted samples.
func rankIndex(n int, q float64) int {
	// The epsilon keeps q*n that is integral in exact arithmetic (0.99 ×
	// 1000) from rounding up a rank through float error.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples rank above quantile q.
func beyond(n int, q float64) int { return n - 1 - rankIndex(n, q) }

// quantile returns the nearest-rank q-quantile of s, which must be
// sorted by sortSamples. A rank that lands on a failure reports
// penalty — a failure missed every limit, so it is charged at least the
// whole measured window — or the failure's own duration if longer.
func quantile(s []sample, q float64, penalty time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	x := s[rankIndex(len(s), q)]
	if x.failed && x.d < penalty {
		return penalty
	}
	return x.d
}

// tailLadder is the set of tail percentiles the benchmark reports, from
// the highest down.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailQuantile picks the highest percentile in tailLadder that has at
// least ten samples beyond it; ok is false when n is too small for any.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		if n > 0 && beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// failedShare is the share of s that failed or was refused.
func failedShare(s []sample) float64 {
	if len(s) == 0 {
		return 0
	}
	n := 0
	for _, x := range s {
		if x.failed {
			n++
		}
	}
	return float64(n) / float64(len(s))
}

// bucketRate is the median over the whole seconds of window of the
// reports accepted by operations completing in each second: a short
// stall on a shared host moves one bucket, not the rate. Operations
// completing after the window (the last in flight, the final flush) are
// left out.
func bucketRate(s []sample, window time.Duration) float64 {
	buckets := make([]float64, int(window/time.Second))
	if len(buckets) == 0 {
		return 0
	}
	for _, x := range s {
		if i := int(x.at / time.Second); i < len(buckets) {
			buckets[i] += float64(x.n)
		}
	}
	return median(buckets)
}

// opRate is the median over operations of reports accepted per second
// of the operation's own duration.
func opRate(s []sample) float64 {
	rates := make([]float64, 0, len(s))
	for _, x := range s {
		rates = append(rates, ratio(float64(x.n), x.d.Seconds()))
	}
	return median(rates)
}

// span is one timed call across a layer boundary, as offsets from a
// common epoch.
type span struct {
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTime is parent's duration minus the part of it its children cover.
// Children are clipped to the parent, and time covered by several
// overlapping children is subtracted once.
func selfTime(parent span, children []span) time.Duration {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur span
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// attribute assigns each child to the latest-starting parent whose
// interval contains the child's start, and returns every parent's self
// time in parent order. Parents and children must come from one lane —
// one closed-loop connection — so containment identifies the caller.
func attribute(parents, children []span) []time.Duration {
	order := make([]int, len(parents))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return parents[order[a]].start < parents[order[b]].start })
	kids := make([][]span, len(parents))
	for _, c := range children {
		// Latest parent starting at or before the child.
		j := sort.Search(len(order), func(k int) bool { return parents[order[k]].start > c.start }) - 1
		for ; j >= 0; j-- {
			p := parents[order[j]]
			if c.start <= p.end {
				kids[order[j]] = append(kids[order[j]], c)
				break
			}
		}
	}
	self := make([]time.Duration, len(parents))
	for i, p := range parents {
		self[i] = selfTime(p, kids[i])
	}
	return self
}

// durations returns the span lengths of ss as successful samples.
func durations(ss []span) []sample {
	out := make([]sample, len(ss))
	for i, s := range ss {
		out[i] = sample{d: s.dur()}
	}
	return out
}

// fromDurations wraps ds as successful samples.
func fromDurations(ds []time.Duration) []sample {
	out := make([]sample, len(ds))
	for i, d := range ds {
		out[i] = sample{d: d}
	}
	return out
}

// pct returns the q-quantile of successful durations (0 when empty).
func pct(s []sample, q float64) time.Duration {
	sortSamples(s)
	return quantile(s, q, 0)
}

// sum adds the span lengths.
func sum(ss []span) time.Duration {
	var t time.Duration
	for _, s := range ss {
		t += s.dur()
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
