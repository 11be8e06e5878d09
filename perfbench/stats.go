package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of values by linear interpolation
// between closest ranks; NaN when values is empty. values is not modified.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo] // also keeps +Inf (a failed operation) from becoming NaN
	}
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// tailQuantile is the highest quantile, at most 0.99, that leaves at least
// ten of n samples beyond it: a tail estimate that rests on more than one
// or two outliers.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// interval is a closed time span used for self-time accounting.
type interval struct{ start, end time.Duration }

// unionWithin returns how much of [span.start, span.end] the intervals
// cover, counting overlapping intervals once. Quorum RPCs of one operation
// run in parallel, so summing their durations would overstate the time
// the operation spent waiting on the network.
func unionWithin(span interval, parts []interval) time.Duration {
	clipped := make([]interval, 0, len(parts))
	for _, p := range parts {
		if p.start < span.start {
			p.start = span.start
		}
		if p.end > span.end {
			p.end = span.end
		}
		if p.end > p.start {
			clipped = append(clipped, p)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, p := range clipped {
		switch {
		case i == 0:
			cur = p
		case p.start <= cur.end:
			if p.end > cur.end {
				cur.end = p.end
			}
		default:
			total += cur.end - cur.start
			cur = p
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// ratio divides, returning 0 when the base is 0 so a layer that did no
// work reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
