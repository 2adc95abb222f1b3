package main

import (
	"slices"
	"testing"
	"time"

	"tlsfof/internal/ingest"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, ok: false},
		{n: 20, want: 0.50, ok: true},   // p50 is rank 10, 10 beyond
		{n: 39, want: 0.50, ok: true},   // p75 is rank 30, 9 beyond
		{n: 40, want: 0.75, ok: true},   // p75 is rank 30, 10 beyond
		{n: 99, want: 0.75, ok: true},   // p90 is rank 90, 9 beyond
		{n: 100, want: 0.90, ok: true},  // p90 is rank 90, 10 beyond
		{n: 199, want: 0.90, ok: true},  // p95 is rank 190, 9 beyond
		{n: 200, want: 0.95, ok: true},  // p95 is rank 190, 10 beyond
		{n: 999, want: 0.95, ok: true},  // p99 is rank 990, 9 beyond
		{n: 1000, want: 0.99, ok: true}, // p99 is rank 990, 10 beyond
		{n: 100000, want: 0.99, ok: true},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < 10 {
			t.Errorf("n=%d q=%v leaves %d beyond", c.n, q, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s []sample
	for i := 1; i <= 100; i++ {
		s = append(s, sample{d: time.Duration(i) * time.Millisecond})
	}
	sortSamples(s)
	if got := quantile(s, 0.5, 0); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := quantile(s, 0.99, 0); got != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
}

func TestFailuresSortAboveSuccesses(t *testing.T) {
	window := 10 * time.Second
	// A refusal that came back fast must still rank above a slow success.
	s := []sample{
		{d: 1 * time.Millisecond, failed: true},
		{d: 900 * time.Millisecond},
		{d: 2 * time.Millisecond},
		{d: 3 * time.Millisecond},
	}
	sortSamples(s)
	if !s[len(s)-1].failed {
		t.Fatalf("failure did not sort last: %+v", s)
	}
	if got := quantile(s, 1.0, window); got != window {
		t.Errorf("max = %v, want the window %v charged to the failure", got, window)
	}
	if got := quantile(s, 0.75, window); got != 900*time.Millisecond {
		t.Errorf("p75 = %v, want the slowest success", got)
	}
	if got := failedShare(s); got != 0.25 {
		t.Errorf("failed share = %v, want 0.25", got)
	}
	all := []sample{{d: time.Millisecond, failed: true}, {d: 20 * time.Second, failed: true}}
	sortSamples(all)
	if got := quantile(all, 0.5, window); got != window {
		t.Errorf("all-failed p50 = %v, want %v", got, window)
	}
	if got := quantile(all, 1.0, window); got != 20*time.Second {
		t.Errorf("a failure longer than the window keeps its own duration, got %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	p := span{start: 0, end: 100}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{10, 20}, {30, 50}}, 70},
		{"overlapping", []span{{10, 40}, {30, 60}}, 50},
		{"nested", []span{{10, 60}, {20, 30}}, 50},
		{"unsorted overlap", []span{{70, 90}, {10, 40}, {35, 75}}, 20},
		{"clipped to parent", []span{{-20, 10}, {90, 130}}, 80},
		{"outside parent", []span{{150, 200}}, 100},
		{"touching", []span{{10, 20}, {20, 30}}, 80},
		{"covers parent", []span{{-5, 105}, {40, 50}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAttributeByContainment(t *testing.T) {
	parents := []span{{0, 100}, {90, 200}, {300, 400}}
	children := []span{
		{10, 30},   // parent 0
		{95, 120},  // parent 1: the latest parent started before it
		{310, 320}, // parent 2
		{250, 260}, // no parent
	}
	got := attribute(parents, children)
	want := []time.Duration{80, 85, 90}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parent %d self = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFixedTailQuantilesAreOnTheLadder(t *testing.T) {
	for w, q := range tailQuantiles {
		found := false
		for _, l := range tailLadder {
			found = found || l == q
		}
		if !found {
			t.Errorf("%s: tail quantile %v is not on the ladder %v", w, q, tailLadder)
		}
	}
}

func TestBucketRateIsMedianOfWholeSeconds(t *testing.T) {
	var s []sample
	// 100 reports in second 0, 300 in second 1 (a burst), 120 in second
	// 2, and a late operation after the 3-second window.
	for i, n := range []int64{100, 300, 120} {
		s = append(s, sample{at: time.Duration(i)*time.Second + 500*time.Millisecond, n: n})
	}
	s = append(s, sample{at: 3500 * time.Millisecond, n: 1000})
	if got := bucketRate(s, 3*time.Second); got != 120 {
		t.Errorf("bucketRate = %v, want 120", got)
	}
	if got := opRate([]sample{{d: time.Second, n: 10}, {d: 2 * time.Second, n: 10}, {d: time.Second, n: 40}}); got != 10 {
		t.Errorf("opRate = %v, want 10", got)
	}
}

// A slower program times fewer operations than the fixed tail quantile
// needs; that is measured and noted, not reported as a failed check.
func TestTailShortfallIsRecordedNotFailed(t *testing.T) {
	var s []sample
	for i := 1; i <= 30; i++ {
		s = append(s, sample{d: time.Duration(i) * time.Millisecond, n: 1000})
	}
	load := &loadResult{primary: s, aux: s, window: time.Second, perOpRate: true, accepted: 30000}
	o := &outcome{metrics: make(map[string]float64), detail: make(map[string]any)}
	e2eMetrics(o, "study", []instance{{load: load}}, []float64{0.5})
	if len(o.problems) != 0 {
		t.Fatalf("problems %v, want none", o.problems)
	}
	tail := o.detail["tail"].(map[string]any)
	if tail["short"] != true || tail["beyond"] != 7 {
		t.Errorf("tail record %v, want short with 7 beyond p75", tail)
	}
	if got := o.metrics["latency_tail_ms"]; got != 23 {
		t.Errorf("latency_tail_ms %v, want the nearest-rank p75 of 30 samples, 23", got)
	}
}

// Splitting a batch by owner keeps every report exactly once, in order
// within each owner's part.
func TestSplitByOwnerPartitionsTheBatch(t *testing.T) {
	owner := map[string]int{"a": 0, "b": 1, "c": 2, "d": 1}
	var batch []ingest.Report
	for i, h := range []string{"a", "b", "c", "d", "a", "d", "c"} {
		batch = append(batch, ingest.Report{Host: h, Trace: uint64(i)})
	}
	parts := splitByOwner(make([][]ingest.Report, 3), batch, owner)
	want := [][]uint64{{0, 4}, {1, 3, 5}, {2, 6}}
	for i, p := range parts {
		var got []uint64
		for _, r := range p {
			if owner[r.Host] != i {
				t.Errorf("part %d holds %s, owned by %d", i, r.Host, owner[r.Host])
			}
			got = append(got, r.Trace)
		}
		if !slices.Equal(got, want[i]) {
			t.Errorf("part %d = %v, want %v", i, got, want[i])
		}
	}
	// Reused parts are reset, not appended to.
	parts = splitByOwner(parts, batch[:1], owner)
	if len(parts[0]) != 1 || len(parts[1]) != 0 || len(parts[2]) != 0 {
		t.Errorf("second split: part sizes %d/%d/%d, want 1/0/0", len(parts[0]), len(parts[1]), len(parts[2]))
	}
}
