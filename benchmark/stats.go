package main

import (
	"sort"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPermille are the candidates of tailPercentile, highest first.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it and returns that percentile with its value. With
// fewer than twenty samples no percentile qualifies and ok is false.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, pm := range tailPermille {
		idx := (n*pm + 999) / 1000 // samples from idx on lie beyond the percentile
		if n-idx >= 10 && idx > 0 {
			return float64(pm) / 10, s[idx-1], true
		}
	}
	return 0, 0, false
}

// failedShare is failed/attempted, 0 when nothing was attempted.
func failedShare(attempted, failed int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// selfTime is a span's duration minus the part of its interval covered
// by the union of its direct children (children may overlap one another
// and may stick out of the parent; only the covered part counts).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.After(end) || end.IsZero() {
			covered += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			covered += v.b.Sub(end)
			end = v.b
		}
	}
	return parent.End.Sub(parent.Start) - covered
}
