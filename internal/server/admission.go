package server

// admission.go implements the signed-request admission stage (DESIGN.md
// §7.11): concurrently arriving writes are collected into micro-batches
// and their signatures checked with one Ed25519 batch verification
// (cryptoutil.VerifyBatch) instead of one double-scalar multiplication
// each. Batching is adaptive — group-commit style, like the WAL — so an
// idle replica pays zero added latency:
//
//   - The first write to arrive becomes its batch's leader. It yields
//     the processor once so peers that are already runnable can join,
//     then — if no batch is being verified right now — flushes
//     immediately (a batch of one falls through to the plain
//     per-signature check).
//   - While a verification is in flight, later arrivals accumulate into
//     the next batch. Its leader flushes when the in-flight batch
//     finishes (handoff), when the batch reaches the size cap, or after
//     the flush deadline (~200µs) — whichever comes first. The deadline
//     only bounds the wait; it is never an idle sleep.
//   - A disseminated frame (handlers.go: ingest) submits the signatures
//     of all its new writes at once: they join the open batch when they
//     fit, open their own batch otherwise, and are cut at the cap.
//
// Ordering: admission never reorders effects. A write's admit call
// returns only after its own batch verifies, and integration happens
// after that, in the caller's goroutine, under the same locks as before
// — so any two writes that were ordered before (one's admit returned
// before the other's began) stay ordered, which is what the MW/CC causal
// gating depends on. Verdicts are per-item: a write whose batch partner
// fails verification is still admitted independently (VerifyBatch
// bisects failures down to the offending signature).

import (
	"runtime"
	"sync"
	"time"

	"securestore/internal/cryptoutil"
	"securestore/internal/metrics"
)

const (
	// defaultVerifyBatch caps how many signatures one admission batch
	// carries. Past ~64 the multi-scalar multiplication's per-signature
	// saving flattens while batch latency keeps growing.
	defaultVerifyBatch = 64
	// defaultVerifyBatchWait bounds how long a batch leader waits for
	// company while another batch's verification is in flight.
	defaultVerifyBatchWait = 200 * time.Microsecond
)

// admitter is the admission batcher. One per server.
type admitter struct {
	ring    *cryptoutil.Keyring
	metrics *metrics.Counters
	max     int
	wait    time.Duration

	mu      sync.Mutex
	cur     *admissionBatch // open batch accepting arrivals (nil: none)
	running int             // batch verifications in flight
}

// admissionBatch is one micro-batch of signature-check jobs.
type admissionBatch struct {
	items []cryptoutil.BatchItem
	errs  []error
	done  chan struct{} // closed once errs is populated
	kick  chan struct{} // wakes the leader early: size cap or handoff
}

func newAdmitter(ring *cryptoutil.Keyring, m *metrics.Counters, max int, wait time.Duration) *admitter {
	if max <= 0 {
		max = defaultVerifyBatch
	}
	if wait <= 0 {
		wait = defaultVerifyBatchWait
	}
	return &admitter{ring: ring, metrics: m, max: max, wait: wait}
}

// admit verifies items through the batcher, writing each item's verdict
// to the matching slot of errs, and returns once every one is decided.
// A single request's check arrives as one item; a disseminated frame
// arrives as many, which join the open batch when they fit and otherwise
// open their own, so one frame of up to the cap verifies as one batch.
// Larger submissions go through in cap-sized chunks, in order.
func (a *admitter) admit(items []cryptoutil.BatchItem, errs []error) {
	for len(items) > 0 {
		n := min(len(items), a.max)
		a.admitChunk(items[:n], errs[:n])
		items, errs = items[n:], errs[n:]
	}
}

// admitChunk submits at most a.max items as one unit of a batch.
func (a *admitter) admitChunk(items []cryptoutil.BatchItem, errs []error) {
	a.mu.Lock()
	b := a.cur
	if b != nil && len(b.items)+len(items) > a.max {
		// No room: seal the open batch for its leader to flush now.
		a.cur = nil
		b.wake()
		b = nil
	}
	if b == nil {
		b = &admissionBatch{
			items: make([]cryptoutil.BatchItem, 0, len(items)),
			done:  make(chan struct{}),
			kick:  make(chan struct{}, 1),
		}
		a.cur = b
	}
	off := len(b.items)
	b.items = append(b.items, items...)
	leader := off == 0
	full := len(b.items) >= a.max
	if full {
		a.cur = nil // sealed: the next arrival opens a fresh batch
	}
	a.mu.Unlock()

	if !leader {
		if full {
			b.wake()
		}
		<-b.done
		copy(errs, b.errs[off:])
		return
	}

	// Leader. Give concurrently arriving requests one chance to join
	// before flushing: yield the processor once, so every runnable peer
	// gets to enqueue (or park on its own batch) first. On a single-CPU
	// host this is what forms batches at all — concurrent demand exists
	// but cannot enqueue while this goroutine holds the processor — and
	// on an idle server it is a ~no-op, so solo requests still flush
	// immediately with no added latency.
	if !full {
		runtime.Gosched()
		a.mu.Lock()
		full = a.cur != b || len(b.items) >= a.max
		busy := a.running > 0
		a.mu.Unlock()
		if !full && busy {
			// Another batch's verification is in flight: its arrivals-
			// while-running are this batch's company, so wait for the
			// handoff — bounded by the size cap and the flush deadline.
			t := time.NewTimer(a.wait)
			select {
			case <-b.kick:
			case <-t.C:
			}
			t.Stop()
		}
	}
	a.flush(b)
	copy(errs, b.errs)
}

// wake nudges the batch's leader without blocking; extra wakes are
// dropped.
func (b *admissionBatch) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// flush seals and verifies the batch, publishes the verdicts, and hands
// off to the next open batch's leader.
func (a *admitter) flush(b *admissionBatch) {
	a.mu.Lock()
	if a.cur == b {
		a.cur = nil
	}
	a.running++
	a.mu.Unlock()

	a.metrics.AddVerifyBatch(len(b.items))
	b.errs = a.ring.VerifyBatch(b.items, a.metrics)
	close(b.done)

	a.mu.Lock()
	a.running--
	next := a.cur
	idle := a.running == 0
	a.mu.Unlock()
	if idle && next != nil {
		next.wake()
	}
}
