package main

// openloop.go is the benchmark's open-loop generator. Every operation is
// due at its intended time whether or not earlier ones have finished; a
// fixed pool of sessions executes them in order, at most one each at a
// time. A free session takes the next operation and sleeps until it is
// due; when every session is busy, due operations wait with their latency
// ticking. Each operation records when it was due, when it was released
// (due, or later if the sleeping session woke late), when a session
// started it and when it finished, so latency is charged from the intended
// send time and the generator's own delays — dispatch lateness and queue
// wait for a free session — are reported separately.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is the timing of one operation, as offsets from the phase start.
type sample struct {
	read       bool
	intended   time.Duration
	dispatched time.Duration
	started    time.Duration
	done       time.Duration
	err        error
	// executed is false for operations cancelled before a session ran them.
	executed bool
}

func (s sample) latency() time.Duration   { return s.done - s.intended }
func (s sample) lateness() time.Duration  { return s.dispatched - s.intended }
func (s sample) queueWait() time.Duration { return s.started - s.dispatched }

// phaseResult is every sample of one open-loop phase.
type phaseResult struct {
	samples []sample
	// elapsed runs from the phase start to the last completion.
	elapsed time.Duration
}

// errNotRun marks an operation the drain deadline cancelled while queued.
var errNotRun = errors.New("cancelled before it ran")

// opFunc executes one operation on behalf of a session.
type opFunc func(ctx context.Context, session int, o op) error

// sleepUntil sleeps the calling OS thread until offset at from start, or
// until ctx is done. It uses nanosleep rather than a Go timer: Go timers
// fire on a millisecond grid once the process is idle, which would add up
// to a millisecond of generator lateness to every latency.
func sleepUntil(ctx context.Context, start time.Time, at time.Duration) {
	const slice = 20 * time.Millisecond // bounds how long a cancel goes unseen
	for ctx.Err() == nil {
		d := at - time.Since(start)
		if d <= 0 {
			return
		}
		if d > slice {
			d = slice
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks
	}
}

// runOpenLoop executes p with the given number of sessions. From the last
// arrival it waits at most drain for outstanding operations (0: no
// limit), then cancels them; they count as failed. Operations not yet
// claimed when ctx ends are left out of the result.
func runOpenLoop(ctx context.Context, p plan, sessions int, drain time.Duration, do opFunc) phaseResult {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	samples := make([]sample, len(p.ops))
	var next atomic.Int64
	start := time.Now()
	if drain > 0 && len(p.arrivals) > 0 {
		stop := time.AfterFunc(p.arrivals[len(p.arrivals)-1]+drain, cancel)
		defer stop.Stop()
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			// The session sleeps on its own thread (see sleepUntil).
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(p.ops) {
					return
				}
				sm := &samples[i]
				sm.read, sm.intended = p.ops[i].read, p.arrivals[i]
				sm.dispatched = sm.intended
				if time.Since(start) < sm.intended {
					sleepUntil(ctx, start, sm.intended)
					sm.dispatched = time.Since(start)
				}
				sm.started = time.Since(start)
				if runCtx.Err() != nil {
					sm.err, sm.done = errNotRun, sm.started
					continue
				}
				sm.err = do(runCtx, session, p.ops[i])
				sm.done = time.Since(start)
				sm.executed = true
			}
		}(s)
	}
	wg.Wait()
	claimed := int(next.Load())
	if claimed > len(samples) {
		claimed = len(samples)
	}
	res := phaseResult{samples: samples[:claimed]}
	for _, s := range res.samples {
		if s.done > res.elapsed {
			res.elapsed = s.done
		}
	}
	return res
}

// failures counts operations that returned an error or never ran.
func (r phaseResult) failures() int {
	n := 0
	for _, s := range r.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the latencies of successful operations of one kind,
// in milliseconds.
func (r phaseResult) latencies(read bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.read == read && s.err == nil {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// offered is the rate the schedule actually offered: operations per
// second of schedule span.
func (r phaseResult) offered() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	last := r.samples[len(r.samples)-1].intended
	if last <= 0 {
		return 0
	}
	return float64(len(r.samples)) / last.Seconds()
}

// achieved is successful operations per second from the phase start to
// the last completion.
func (r phaseResult) achieved() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.samples)-r.failures()) / r.elapsed.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
