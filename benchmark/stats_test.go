package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// ramp is 1, 2, …, n, so the value at a percentile is easy to state.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the selector must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{20, 50, 10},
		{40, 75, 30},
		{100, 90, 90},
		{20000, 99.9, 19980},
	} {
		pct, value, ok := tailPercentile(ramp(tc.n))
		if !ok || pct != tc.pct || value != tc.value {
			t.Errorf("n=%d: got p%v = %v (ok=%v), want p%v = %v", tc.n, pct, value, ok, tc.pct, tc.value)
		}
	}
	for _, n := range []int{0, 1, 10, 19} {
		if pct, _, ok := tailPercentile(ramp(n)); ok {
			t.Errorf("n=%d: got p%v, want no percentile with ten samples beyond it", n, pct)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := func(a, b int) span { return span{Start: at(a), End: at(b)} }
	parent := sp(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int // ms
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(50, 70)}, 70},
		{"overlapping count once", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested count once", []span{sp(10, 60), sp(20, 30)}, 50},
		{"clipped to the parent", []span{sp(-20, 10), sp(90, 150)}, 80},
		{"outside the parent", []span{sp(120, 150)}, 100},
		{"unsorted", []span{sp(50, 70), sp(10, 20)}, 70},
		{"covering", []span{sp(0, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestFailedShare(t *testing.T) {
	for _, tc := range []struct {
		attempted, failed int
		want              float64
	}{
		{0, 0, 0}, {10, 0, 0}, {10, 1, 0.1}, {4, 4, 1},
	} {
		if got := failedShare(tc.attempted, tc.failed); got != tc.want {
			t.Errorf("failedShare(%d, %d) = %v, want %v", tc.attempted, tc.failed, got, tc.want)
		}
	}
}

func TestSamplesCountFailuresAsMissingLatency(t *testing.T) {
	s := &samples{}
	s.record(opProve, time.Second, nil)
	s.record(opProve, time.Second, errTest)
	if s.attempted != 2 || s.failed != 1 || len(s.lat[opProve]) != 1 || s.firstErr != errTest {
		t.Errorf("got attempted=%d failed=%d latencies=%d firstErr=%v", s.attempted, s.failed, len(s.lat[opProve]), s.firstErr)
	}
}
