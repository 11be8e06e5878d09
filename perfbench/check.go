package main

// check.go is the benchmark's correctness hook. Every operation of a run
// is recorded into a checker.History, one checker client per driver
// session: a session issues its operations one at a time, so its order is
// well defined even though the sessions share one client principal and
// context. At the end the history is checked for integrity (every read
// returns the digest of a recorded write at its stamp), monotonic reads
// and read-your-writes, and every read is checked to carry the header of
// a write to the item it read.

import (
	"fmt"
	"sync"

	"securestore/internal/checker"
	"securestore/internal/timestamp"
)

type recorder struct {
	h *checker.History

	mu      sync.Mutex
	foreign []string // reads that returned bytes written to another item
}

func newRecorder() *recorder { return &recorder{h: checker.New()} }

// write records a write's outcome. A failed write may still have reached
// some replicas, so its stamp stays readable; it raises no RYW floor.
func (r *recorder) write(session, item string, stamp timestamp.Stamp, value []byte, err error) {
	if err != nil {
		r.h.RecordFailedWrite(session, item, stamp, value, nil)
		return
	}
	r.h.RecordWrite(session, item, stamp, value, nil)
}

// read records a successful read.
func (r *recorder) read(session, item string, stamp timestamp.Stamp, value []byte) {
	r.h.RecordRead(session, item, stamp, value)
	if !namesItem(value, item) {
		r.mu.Lock()
		r.foreign = append(r.foreign, fmt.Sprintf("read of %s at %s returned bytes not written to it", item, stamp))
		r.mu.Unlock()
	}
}

// violations returns every problem found; empty means the run was correct.
func (r *recorder) violations() []string {
	var out []string
	for _, v := range r.h.Check() {
		out = append(out, v.String())
	}
	r.mu.Lock()
	out = append(out, r.foreign...)
	r.mu.Unlock()
	return out
}
