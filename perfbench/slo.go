package main

// slo.go finds slo_rate_ops_s: the highest offered rate at which the tail
// latency stays within the workload's SLO and the cluster keeps up with
// the offered load. The search steps up from a starting rate until a probe
// fails, then bisects geometrically between the highest pass and the
// lowest failure, so its answer is a measured bracket, not a grid point.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// errNoPass reports a search in which no probe met the SLO.
var errNoPass = errors.New("no probe met the SLO")

// minAchievedShare is how much of the offered rate a probe must complete
// for the cluster to count as keeping up (no growing backlog).
const minAchievedShare = 0.97

// marginalShare separates a probe that failed on its tail alone (achieved
// at least this share of the offered rate) from one that fell behind.
const marginalShare = 0.9

// probeOutcome is one probe of the search.
type probeOutcome struct {
	rate     float64 // nominal offered rate, ops/s
	offered  float64 // rate the Poisson schedule realised, ops/s
	achieved float64 // successful ops/s to the last completion
	tailMs   float64 // tail latency, failures counted as unbounded
	steal    float64 // hypervisor steal, share of the machine's CPU
	pass     bool
}

func (p probeOutcome) String() string {
	verdict := "fail"
	if p.pass {
		verdict = "pass"
	}
	return fmt.Sprintf("rate %.0f: offered %.1f achieved %.1f tail %.2f ms steal %.1f%% %s",
		p.rate, p.offered, p.achieved, p.tailMs, 100*p.steal, verdict)
}

// judgeProbe turns a probe phase into an outcome against slo.
func judgeProbe(rate float64, res phaseResult, slo time.Duration) probeOutcome {
	lat := make([]float64, 0, len(res.samples))
	for _, s := range res.samples {
		if s.err != nil {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(s.latency()))
		}
	}
	out := probeOutcome{
		rate:     rate,
		offered:  res.offered(),
		achieved: res.achieved(),
		tailMs:   quantile(lat, tailQuantile(len(lat))),
	}
	out.pass = out.tailMs <= ms(slo) && out.achieved >= minAchievedShare*out.offered
	return out
}

// prober runs one probe at a nominal rate.
type prober func(ctx context.Context, rate float64) (probeOutcome, error)

// findSLORate runs at most maxProbes probes and returns the highest
// passing probe with every probe made. It probes start first, multiplies
// the rate by step until a probe fails (or divides until one passes), then
// bisects geometrically between the highest pass and the lowest failure.
// A failed probe is repeated once, budget permitting, when it failed on
// its tail while keeping up with the offered rate or ran while the
// hypervisor stole CPU, and the rate fails only if both probes do: a few
// seconds' stall of the host should not end the search low. A probe that
// fell behind the offered rate on a quiet host fails at once.
func findSLORate(ctx context.Context, start, step float64, maxProbes int, probe prober) (probeOutcome, []probeOutcome, error) {
	var best probeOutcome
	var made []probeOutcome
	lo, hi := 0.0, math.Inf(1) // highest pass, lowest failure
	rate := start
	for len(made) < maxProbes {
		out, err := probe(ctx, rate)
		if err != nil {
			return best, made, err
		}
		made = append(made, out)
		doubtful := out.achieved >= marginalShare*out.offered || out.steal >= quietSteal
		if !out.pass && doubtful && len(made) < maxProbes {
			if out, err = probe(ctx, rate); err != nil {
				return best, made, err
			}
			made = append(made, out)
		}
		if out.pass {
			lo, best = rate, out
		} else {
			hi = rate
		}
		switch {
		case math.IsInf(hi, 1):
			rate = step * lo
		case lo == 0:
			rate = hi / step
		default:
			rate = math.Sqrt(lo * hi)
		}
	}
	if lo == 0 {
		return best, made, fmt.Errorf("%w down to %.1f ops/s", errNoPass, hi)
	}
	return best, made, nil
}
